import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp, xlogy

import sgl
from sgl.errors import DomainError
from sgl.games import ROW_SUM_TOL, PolicyProfile, random_profile
from sgl.generators import GeneratorSpec, generate
from sgl.mirror import (
    SCORE_LIMIT,
    Regularizer,
    conjugate,
    fenchel_coupling,
    fenchel_step_bound_check,
    make_regularizer,
    mirror_map,
    project_simplex,
    softmax_rows,
)

ENTROPY = make_regularizer("entropy")
EUCLIDEAN = make_regularizer("euclidean")


def game22():
    # two states, players with 2 and 3 actions
    return generate(
        GeneratorSpec(kind="random-ergodic", n_states=2, n_actions=(2, 3), seed=0)
    )


def random_scores(rng, shapes, scale=3.0):
    return [scale * rng.standard_normal(shape) for shape in shapes]


SHAPES = ((2, 2), (2, 3))


# ---------------------------------------------------------------------------
# mirror maps


class TestMirrorMap:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            Regularizer("huber")

    def test_entropy_zero_scores_give_uniform(self):
        game = game22()
        policy = mirror_map(ENTROPY, [np.zeros((game.n_states, m)) for m in game.n_actions])
        for block, m in zip(policy.probs, game.n_actions):
            np.testing.assert_allclose(block, 1.0 / m, atol=1e-15)

    def test_entropy_shift_invariance(self):
        rng = np.random.default_rng(0)
        scores = random_scores(rng, SHAPES)
        shifted = [y + rng.normal() for y in scores]  # constant per call
        a = mirror_map(ENTROPY, scores)
        b = mirror_map(ENTROPY, shifted)
        for x, y in zip(a.probs, b.probs):
            np.testing.assert_allclose(x, y, atol=1e-12)

    def test_entropy_two_action_logit_value(self):
        policy = mirror_map(ENTROPY, [np.array([[1.0, 0.0]])])
        e = np.e
        np.testing.assert_allclose(
            policy.probs[0], [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-12
        )
        assert policy.probs[0][0, 0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_euclidean_is_simplex_projection(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(4, 3))
        policy = mirror_map(EUCLIDEAN, [y])
        np.testing.assert_allclose(policy.probs[0], project_simplex(y), atol=1e-15)

    def test_nonfinite_scores_rejected(self):
        # past max|y| * S * m = SCORE_LIMIT a row shifted by its max, its
        # cumulative sums or a block's conjugate could overflow
        big = np.nextafter(SCORE_LIMIT / 4, np.inf)
        for reg in (ENTROPY, EUCLIDEAN):
            for bad in (np.inf, -np.inf, np.nan, 1e308, big, -big):
                with pytest.raises(DomainError, match="dual scores must be finite"):
                    mirror_map(reg, [np.array([[1e300, 0.0], [bad, 0.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the conjugates and couplings refuse such scores before any
            # log-sum-exp or projection, for either regularizer
            for reg in (ENTROPY, EUCLIDEAN):
                for bad in ([[big, 0.0, 0.0, 0.0]], [[1e308, -1e308]], [[np.inf, 0.0]],
                            [[np.nan, 0.0]]):
                    y = [np.array(bad)]
                    uniform = PolicyProfile((np.full(y[0].shape, 1.0 / y[0].shape[1]),))
                    with pytest.raises(DomainError, match="dual scores must be finite"):
                        conjugate(reg, y)
                    with pytest.raises(DomainError, match="dual scores must be finite"):
                        fenchel_coupling(reg, uniform, y)
            top = SCORE_LIMIT / 4
            y = [np.array([[top, -top, -top, -top]])]
            for reg, conj in ((ENTROPY, top), (EUCLIDEAN, top - 0.5)):
                policy = mirror_map(reg, y)
                assert policy.probs[0].tolist() == [[1.0, 0.0, 0.0, 0.0]]
                report = fenchel_coupling(reg, policy, y)
                assert report.conjugate == conjugate(reg, y) == conj

    def test_euclidean_rows_keep_their_bits_in_any_stack(self):
        # whether a row is shifted depends on that row alone: rows below the
        # gate map with the same bits next to rows above it
        rng = np.random.default_rng(4)
        for m in (3, 5, 9):
            small = rng.uniform(-0.4, 0.4, (6, m))
            large = 1e4 + rng.uniform(-0.4, 0.4, (6, m))
            block = mirror_map(EUCLIDEAN, [np.concatenate([small, large])]).probs[0]
            for y, row in zip(np.concatenate([small, large]), block):
                assert row.tobytes() == mirror_map(EUCLIDEAN, [y[None]]).probs[0].tobytes()
            assert block[:6].tobytes() == project_simplex(small).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        exponent=st.integers(4, 100),
        m=st.integers(2, 12),
        data=st.data(),
    )
    def test_euclidean_rows_sum_to_one_at_large_scores(self, exponent, m, data):
        # entries 10**exponent * (1 + k / 2**p): near-ties a few ulps apart
        # and entries a unit or more apart, where the projection's sums of
        # unshifted entries would lose the 1
        k = data.draw(arrays(float, (3, m), elements=st.integers(-4, 4).map(float)))
        p = data.draw(st.sampled_from([0, 10, 20, 40, 50, 52]))
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        y = sign * 10.0**exponent * (1.0 + k / 2.0**p)
        block = mirror_map(EUCLIDEAN, [y]).probs[0]
        assert (block >= 0.0).all()
        assert np.abs(block.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, (3, 4), elements=st.floats(-50, 50)))
    def test_projection_properties(self, y):
        x = project_simplex(y)
        assert (x >= 0).all()
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)
        # projection is idempotent
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-9)

    # the fixture returns a stateless function, so sharing it across
    # examples is safe
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.integers(1, 5),
        m=st.integers(1, 12),
        exponent=st.integers(-6, 6),
        equal_rows=st.booleans(),
        data=st.data(),
    )
    def test_projection_bits_match_the_reference(
        self, reference_project_simplex, rows, m, exponent, equal_rows, data
    ):
        # ties, signed zeros and rows of one repeated entry, at scales 1e-6 to 1e6
        entries = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.integers(-8, 8).map(lambda k: k / 4),
            st.floats(-4.0, 4.0),
        )
        y = data.draw(arrays(float, (rows, m), elements=entries)) * 10.0**exponent
        if equal_rows:
            y[:] = y[:, :1]
        got, want = project_simplex(y), reference_project_simplex(y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_maps_of_a_stack_are_the_maps_of_its_rows(self):
        # the learner mirrors a (seeds, players, states, actions) stack at once
        rng = np.random.default_rng(12)
        for m in range(1, 41):
            for scale in (1e-3, 1.0, 30.0):
                y = scale * rng.standard_normal((3, 2, 4, m))
                for mirror in (softmax_rows, project_simplex):
                    rows = mirror(y.reshape(-1, m)).reshape(y.shape)
                    assert np.array_equal(mirror(y), rows)

    def test_projection_against_quadratic_search(self):
        # oracle: dense grid search of the nearest simplex point
        rng = np.random.default_rng(4)
        y = rng.normal(size=(1, 2))
        x = project_simplex(y)[0]
        grid = np.linspace(0, 1, 20001)
        cands = np.stack([grid, 1 - grid], axis=1)
        best = cands[np.argmin(((cands - y[0]) ** 2).sum(axis=1))]
        np.testing.assert_allclose(x, best, atol=1e-4)


# ---------------------------------------------------------------------------
# conjugates


class TestConjugate:
    def test_entropy_zero_scores_log_count(self):
        for k in (2, 3, 5):
            val = conjugate(ENTROPY, [np.zeros((1, k))])
            assert val == pytest.approx(np.log(k), abs=1e-12)

    def test_euclidean_interior_hand_solve(self):
        # KKT for two actions: interior projection x = ((y1-y2+1)/2, ...)
        y = np.array([[0.6, 0.2]])
        x = np.array([[0.7, 0.3]])
        expected = float(np.sum(y * x) - 0.5 * np.sum(x * x))
        assert conjugate(EUCLIDEAN, [y]) == pytest.approx(expected, abs=1e-12)
        assert conjugate(EUCLIDEAN, [y]) == pytest.approx(0.19, abs=1e-12)

    def test_entropy_matches_scipy_logsumexp(self):
        # rows with tied maxima, near-zero results and scores far apart
        rng = np.random.default_rng(9)
        for scale in (1e-3, 1.0, 30.0, 1e4):
            for _ in range(200):
                y = scale * rng.standard_normal((4, 3))
                y[0, 1] = y[0, 0] = y[0].max()
                y[1] = 2.0
                want = float(logsumexp(y, axis=1).sum())
                assert conjugate(ENTROPY, [y]) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_fenchel_young_inequality(self, reg):
        game = game22()
        rng = np.random.default_rng(2)
        scores = random_scores(rng, SHAPES)
        h_star = conjugate(reg, scores)
        for _ in range(100):
            p = random_profile(game, rng)
            pairing = sum(float(np.sum(y * b)) for y, b in zip(scores, p.probs))
            assert h_star >= pairing - reg.value(p) - 1e-10


# ---------------------------------------------------------------------------
# Fenchel coupling


class TestFenchelCoupling:
    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_zero_at_the_mirrored_point(self, reg):
        rng = np.random.default_rng(3)
        scores = random_scores(rng, SHAPES)
        mirrored = mirror_map(reg, scores)
        report = fenchel_coupling(reg, mirrored, scores)
        assert report.value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_conjugate_field_is_the_conjugate(self, reg):
        rng = np.random.default_rng(8)
        scores = random_scores(rng, SHAPES)
        report = fenchel_coupling(reg, random_profile(game22(), rng), scores)
        assert report.conjugate == conjugate(reg, scores)

    def test_entropy_coupling_is_kl(self):
        game = game22()
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = random_scores(rng, SHAPES)
            p = random_profile(game, rng, margin=0.05)
            report = fenchel_coupling(ENTROPY, p, scores)
            kl = 0.0
            for block, q in zip(p.probs, report.mirrored.probs):
                kl += float(np.sum(block * (np.log(block) - np.log(q))))
            assert report.value == pytest.approx(kl, abs=1e-10)

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_coupling_equals_divergence_on_interior(self, reg):
        rng = np.random.default_rng(5)
        kept = 0
        while kept < 50:
            scores = random_scores(rng, SHAPES, scale=1.0)
            game = game22()
            p = random_profile(game, rng, margin=0.05)
            report = fenchel_coupling(reg, p, scores)
            if not report.bregman_defined:
                continue
            assert report.bregman == pytest.approx(report.value, abs=1e-10)
            kept += 1

    def test_boundary_mirrored_point_flags_divergence(self):
        scores = [np.array([[5.0, -5.0]])]
        policy = PolicyProfile((np.array([[0.5, 0.5]]),))
        report = fenchel_coupling(EUCLIDEAN, policy, scores)
        assert not report.bregman_defined
        assert report.bregman is None

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_lower_bound_by_squared_distance(self, reg):
        game = game22()
        rng = np.random.default_rng(6)
        for _ in range(1000):
            scores = random_scores(rng, SHAPES)
            p = random_profile(game, rng)
            report = fenchel_coupling(reg, p, scores)
            dist_sq = sum(
                float(np.sum((q - b) ** 2))
                for q, b in zip(report.mirrored.probs, p.probs)
            )
            assert report.value >= 0.5 * reg.modulus * dist_sq - 1e-9


class TestStepBound:
    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_equal_scores_give_equality(self, reg):
        game = game22()
        rng = np.random.default_rng(7)
        scores = random_scores(rng, SHAPES)
        p = random_profile(game, rng)
        check = fenchel_step_bound_check(reg, p, scores, scores)
        assert check.holds
        assert check.lhs == pytest.approx(check.rhs, abs=1e-12)

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_holds_on_random_draws(self, reg):
        game = game22()
        rng = np.random.default_rng(8)
        for _ in range(1000):
            scores = random_scores(rng, SHAPES)
            new_scores = [y + rng.standard_normal(y.shape) for y in scores]
            p = random_profile(game, rng)
            assert fenchel_step_bound_check(reg, p, scores, new_scores).holds

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_holds_for_huge_steps(self, reg):
        game = game22()
        rng = np.random.default_rng(9)
        for _ in range(20):
            scores = random_scores(rng, SHAPES)
            jump = [rng.standard_normal(y.shape) for y in scores]
            total = np.sqrt(sum(float(np.sum(j * j)) for j in jump))
            jump = [1e3 * j / total for j in jump]
            new_scores = [y + j for y, j in zip(scores, jump)]
            p = random_profile(game, rng)
            assert fenchel_step_bound_check(reg, p, scores, new_scores).holds


# ---------------------------------------------------------------------------
# regularizer geometry


class TestRegularizerGeometry:
    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_strong_convexity_modulus(self, reg):
        game = game22()
        rng = np.random.default_rng(10)
        for _ in range(300):
            x = random_profile(game, rng)
            y = random_profile(game, rng)
            lam = float(rng.uniform(0, 1))
            mixed = PolicyProfile(
                tuple(lam * a + (1 - lam) * b for a, b in zip(x.probs, y.probs))
            )
            dist_sq = sum(
                float(np.sum((a - b) ** 2)) for a, b in zip(x.probs, y.probs)
            )
            lhs = reg.value(mixed)
            rhs = (
                lam * reg.value(x)
                + (1 - lam) * reg.value(y)
                - 0.5 * reg.modulus * lam * (1 - lam) * dist_sq
            )
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("reg", [ENTROPY, EUCLIDEAN], ids=["entropy", "euclidean"])
    def test_mirror_map_is_nonexpansive(self, reg):
        # 1/modulus Lipschitz from scores to policies, Euclidean norms
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = random_scores(rng, SHAPES)
            b = random_scores(rng, SHAPES)
            qa = mirror_map(reg, a)
            qb = mirror_map(reg, b)
            num = np.sqrt(
                sum(float(np.sum((x - y) ** 2)) for x, y in zip(qa.probs, qb.probs))
            )
            den = np.sqrt(sum(float(np.sum((x - y) ** 2)) for x, y in zip(a, b)))
            assert num <= den / reg.modulus + 1e-9

    def test_entropy_boundary_value_is_finite(self):
        block = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert ENTROPY.block_value(block) == pytest.approx(np.log(0.5), abs=1e-12)

    def test_entropy_value_is_xlogy_bit_for_bit(self):
        # the Fenchel cells of the golden traces depend on these bits
        rng = np.random.default_rng(0)
        blocks = []
        for shape in [(1, 2), (2, 3), (5, 4), (20, 4), (20, 2), (7, 1)]:
            interior = rng.dirichlet(np.ones(shape[1]), size=shape[0])
            zeros = np.where(rng.random(shape) < 0.3, 0.0, interior)
            one_hot = np.eye(shape[1])[rng.integers(0, shape[1], shape[0])]
            tiny = interior * 10.0 ** rng.uniform(-310, -295, shape)
            blocks += [interior, zeros, one_hot, tiny, np.asfortranarray(interior)]
        blocks += [b.T for b in blocks] + [b[::2] for b in blocks]
        for block in blocks:
            assert ENTROPY.block_value(block) == float(xlogy(block, block).sum())
        # one entry per block, so every term's bits show: a vectorized log
        # that differs from libm's in the last bit on a few inputs in a
        # thousand fails here
        values = np.concatenate([rng.random(20000), rng.random(100) * 1e-300])
        terms = [ENTROPY.block_value(np.array([[v]])) for v in values]
        assert np.array_equal(terms, xlogy(values, values))

    def test_entropy_value_rejects_negative_entries(self):
        with pytest.raises(DomainError, match="negative"):
            ENTROPY.block_value(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_import_loads_no_scipy(self):
        src = pathlib.Path(sgl.__file__).resolve().parents[1]
        code = "import sgl, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            check=True, capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"

    def test_reciprocity_along_rays(self):
        # scores on the ray toward log p mirror to p; the coupling vanishes
        game = game22()
        p = random_profile(game, np.random.default_rng(12), margin=0.2)
        target = [np.log(b) for b in p.probs]
        values = []
        for n in (1, 2, 5, 10, 100, 1000):
            scores = [(1.0 - 1.0 / n) * y for y in target]
            values.append(fenchel_coupling(ENTROPY, p, scores).value)
        assert values[-1] <= 1e-6
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
