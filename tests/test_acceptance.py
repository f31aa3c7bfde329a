"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. The convergence benchmark (criterion 7) runs two games for ten
seeds of 2e5 outer iterations each and takes several minutes.
"""

import math

import numpy as np
import pytest
from scipy.special import xlogy

from sgl.analysis import (
    advantages,
    check_gradient_dominance,
    exact_gradient,
    finite_difference_gradient,
    first_order_residual,
    nash_gap,
    truncated_advantage_series,
)
from sgl.games import (
    PolicyProfile,
    StochasticGame,
    certification_sample,
    certify_mixing,
    dobrushin_coefficient,
    induced_transition_matrix,
    random_profile,
)
from sgl.generators import GeneratorSpec, convergence_benchmark, generate
from sgl.learner import horizon_bias_check
from sgl.mirror import (
    fenchel_coupling,
    fenchel_step_bound_check,
    make_regularizer,
    mirror_map,
)
from sgl.spsa import (
    bias_probe,
    estimate_gradient,
    lifting_for,
    perturb,
    reduced_from_full,
    safety_net_for,
    sample_sphere,
)


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{suffix}", flush=True)


@pytest.fixture(scope="module")
def suite_200():
    """200 random ergodic games (<=3 states, <=3 actions, 2-3 players,
    transition floor 0.1) each paired with a random interior policy."""
    rng = np.random.default_rng(20240)
    suite = []
    for k in range(200):
        n_states = int(rng.integers(1, 4))
        n_players = int(rng.integers(2, 4))
        actions = tuple(int(rng.integers(2, 4)) for _ in range(n_players))
        game = generate(
            GeneratorSpec(
                kind="random-ergodic",
                n_states=n_states,
                n_players=n_players,
                n_actions=actions,
                eps=0.1,
                seed=50_000 + k,
            )
        )
        suite.append((game, random_profile(game, rng, margin=0.2)))
    return suite


# ---------------------------------------------------------------------------
# 1. policy gradient theorem


def test_criterion_1_policy_gradient_theorem(suite_200):
    worst = 0.0
    for game, policy in suite_200:
        exact = [reduced_from_full(b) for b in exact_gradient(game, policy).blocks]
        fd = finite_difference_gradient(game, policy, step=1e-5)
        for a, b in zip(exact, fd):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            worst = max(worst, float((np.abs(a - b) / denom).max()))
    ok = worst <= 1e-4
    _criterion(1, "policy gradient vs finite differences", ok, f"max rel err {worst:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. advantage identities


def test_criterion_2_advantage_identities(suite_200):
    worst_series = worst_mean = worst_excess = 0.0
    for game, policy in suite_200:
        table = advantages(game, policy)
        series = truncated_advantage_series(game, policy)
        worst_series = max(worst_series, float(np.abs(series - table.joint).max()))
        for i in range(game.n_players):
            mean = float(
                np.sum(table.stationary[:, None] * policy.probs[i] * table.own[i])
            )
            worst_mean = max(worst_mean, abs(mean))
        cert = certify_mixing(
            game, certification_sample(game, rng=0) + [policy]
        )
        for i in range(game.n_players):
            bound = 2.0 * game.max_abs_reward(i) / (1.0 - cert.contraction)
            worst_excess = max(
                worst_excess, float(np.abs(table.joint[i]).max()) - bound
            )
    ok = worst_series <= 1e-6 and worst_mean <= 1e-8 and worst_excess <= 0.0
    _criterion(
        2,
        "advantage identities",
        ok,
        f"series {worst_series:.2e}, mean {worst_mean:.2e}, bound excess {worst_excess:.2e}",
    )
    assert worst_series <= 1e-6
    assert worst_mean <= 1e-8
    assert worst_excess <= 0.0


# ---------------------------------------------------------------------------
# 3. coupling inequalities


def _entropy_kl(policy, mirrored):
    total = 0.0
    for p, q in zip(policy.probs, mirrored.probs):
        total += float((xlogy(p, p) - xlogy(p, q)).sum())
    return total


def _divergence(reg, policy, mirrored):
    total = 0.0
    for p, q in zip(policy.probs, mirrored.probs):
        if reg.kind == "entropy":
            grad = 1.0 + np.log(q)
            total += float(
                (xlogy(p, p) - xlogy(q, q) - grad * (p - q)).sum()
            )
        else:
            total += float(
                (0.5 * p * p - 0.5 * q * q - q * (p - q)).sum()
            )
    return total


def test_criterion_3_coupling_suite():
    shapes = ((2, 2), (2, 3))
    game = generate(
        GeneratorSpec(kind="random-ergodic", n_states=2, n_actions=(2, 3), seed=0)
    )
    results = {}
    for kind in ("entropy", "euclidean"):
        reg = make_regularizer(kind)
        rng = np.random.default_rng(99)
        lower_ok = step_ok = lipschitz_ok = True
        identity_err = 0.0
        interior_cases = 0
        for k in range(1000):
            scores = [3.0 * rng.standard_normal(s) for s in shapes]
            other = [y + rng.standard_normal(y.shape) for y in scores]
            p = random_profile(game, rng, margin=0.02)
            report = fenchel_coupling(reg, p, scores)
            dist_sq = sum(
                float(np.sum((q - b) ** 2))
                for q, b in zip(report.mirrored.probs, p.probs)
            )
            lower_ok &= report.value >= 0.5 * reg.modulus * dist_sq - 1e-9
            step_ok &= fenchel_step_bound_check(reg, p, scores, other).holds
            qa, qb = mirror_map(reg, scores), mirror_map(reg, other)
            num = math.sqrt(
                sum(float(np.sum((x - y) ** 2)) for x, y in zip(qa.probs, qb.probs))
            )
            den = math.sqrt(
                sum(float(np.sum((x - y) ** 2)) for x, y in zip(scores, other))
            )
            lipschitz_ok &= num <= den / reg.modulus + 1e-9
            if k < 300:
                if kind == "entropy":
                    mild = [0.7 * rng.standard_normal(s) for s in shapes]
                else:
                    # near-simplex scores keep the projection interior
                    mild = [
                        1.0 / s[1] + 0.08 * rng.standard_normal(s) for s in shapes
                    ]
                rep = fenchel_coupling(reg, p, mild)
                if rep.bregman_defined:
                    interior_cases += 1
                    identity_err = max(
                        identity_err, abs(rep.value - _divergence(reg, p, rep.mirrored))
                    )
                    if kind == "entropy":
                        identity_err = max(
                            identity_err, abs(rep.value - _entropy_kl(p, rep.mirrored))
                        )
        results[kind] = (lower_ok, step_ok, lipschitz_ok, identity_err, interior_cases)
    ok = all(
        lower and step and lip and err <= 1e-10 and cases >= 100
        for lower, step, lip, err, cases in results.values()
    )
    _criterion(
        3,
        "coupling inequalities and identities",
        ok,
        "; ".join(
            f"{kind}: identities {vals[3]:.1e} on {vals[4]} interior cases"
            for kind, vals in results.items()
        ),
    )
    for kind, (lower, step, lip, err, cases) in results.items():
        assert lower, f"{kind}: lower bound failed"
        assert step, f"{kind}: step bound failed"
        assert lip, f"{kind}: mirror map Lipschitz failed"
        assert err <= 1e-10, f"{kind}: identity error {err}"
        assert cases >= 100


# ---------------------------------------------------------------------------
# 4. estimator unbiasedness and query-radius scaling


def test_criterion_4_estimator_unbiasedness():
    # fixed single-state 2x2 game; payoffs are bilinear in the reduced
    # coordinates, evaluated by a test-local oracle
    rng_game = np.random.default_rng(11)
    payoff = rng_game.uniform(0.0, 1.0, size=(2, 2, 2))  # [player, a0, a1]

    def values(x0, x1):
        p0 = np.stack([x0, 1.0 - x0], axis=-1)
        p1 = np.stack([x1, 1.0 - x1], axis=-1)
        return (
            np.einsum("...a,ab,...b->...", p0, payoff[0], p1),
            np.einsum("...a,ab,...b->...", p0, payoff[1], p1),
        )

    delta = 0.2
    net = safety_net_for(1, 2)
    lift = lifting_for(1, 2)
    base = np.array([[0.5]])

    n = 200_000
    rng = np.random.default_rng(7)
    sums = np.zeros(2)
    sq = np.zeros(2)
    for _ in range(n):
        z0 = sample_sphere(1, rng)
        z1 = sample_sphere(1, rng)
        x0 = perturb(base, z0, delta, net)[0, 0]
        x1 = perturb(base, z1, delta, net)[0, 0]
        v0, v1 = values(x0, x1)
        samples = (
            estimate_gradient(float(v0), z0, delta, lift).reduced[0, 0],
            estimate_gradient(float(v1), z1, delta, lift).reduced[0, 0],
        )
        sums += samples
        sq += np.square(samples)
    est_mean = sums / n
    est_se = np.sqrt((sq / n - est_mean**2) / n)

    # nested Monte Carlo for the smoothed payoffs: own coordinate averaged
    # over the radius-delta interval, opponent over the two-point sphere,
    # differentiated centrally with common random numbers
    m = 200_000
    rng2 = np.random.default_rng(8)
    h = 0.05
    ball0 = rng2.uniform(-delta, delta, m)
    sphere1 = delta * rng2.choice([-1.0, 1.0], m)
    q0 = (
        values(0.5 + h + ball0, 0.5 + sphere1)[0]
        - values(0.5 - h + ball0, 0.5 + sphere1)[0]
    ) / (2 * h)
    ball1 = rng2.uniform(-delta, delta, m)
    sphere0 = delta * rng2.choice([-1.0, 1.0], m)
    q1 = (
        values(0.5 + sphere0, 0.5 + h + ball1)[1]
        - values(0.5 + sphere0, 0.5 - h + ball1)[1]
    ) / (2 * h)
    fd_mean = np.array([q0.mean(), q1.mean()])
    fd_se = np.array([q0.std(ddof=1), q1.std(ddof=1)]) / math.sqrt(m)

    combined = np.sqrt(est_se**2 + fd_se**2)
    gaps = np.abs(est_mean - fd_mean)
    unbiased_ok = bool((gaps <= 3.0 * combined).all())

    # query-radius scaling: halving delta roughly halves the smoothing
    # bias; probed off-center so the safety-net shift dominates
    game = generate(
        GeneratorSpec(kind="random-ergodic", n_states=2, n_players=2, n_actions=2,
                      eps=0.1, seed=42)
    )
    policy = PolicyProfile(
        (np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([[0.75, 0.25], [0.35, 0.65]]))
    )
    ratios = []
    for rep in range(10):
        r = np.random.default_rng(100 + rep)
        wide = bias_probe(game, policy, 0.24, n_draws=12_000, rng=r)
        narrow = bias_probe(game, policy, 0.12, n_draws=12_000, rng=r)
        ratios.append(narrow.value / wide.value)
    mean_ratio = float(np.mean(ratios))
    ratio_ok = 0.3 <= mean_ratio <= 0.8

    ok = unbiased_ok and ratio_ok
    _criterion(
        4,
        "estimator unbiasedness and radius scaling",
        ok,
        f"gap/3se {(gaps / (3 * combined)).max():.2f}, mean ratio {mean_ratio:.2f}",
    )
    assert unbiased_ok, f"gaps {gaps} vs 3se {3 * combined}"
    assert ratio_ok, f"mean ratio {mean_ratio}"


# ---------------------------------------------------------------------------
# 5. window-length bias


def test_criterion_5_window_bias():
    game = generate(GeneratorSpec(kind="zerosum-switching"))
    policy = random_profile(game, np.random.default_rng(1), margin=0.1)
    cert = certify_mixing(game, certification_sample(game, rng=0))
    all_ok = True
    details = []
    for k, horizon in enumerate((1, 5, 10, 20)):
        report = horizon_bias_check(
            game, policy, horizon, n_draws=10_000, rng=300 + k,
            contraction=cert.contraction,
        )
        all_ok &= report.ok
        details.append(f"T={horizon}: bias {report.bias.max():.4f}")
    _criterion(5, "window-length bias bound", all_ok, "; ".join(details))
    assert all_ok


# ---------------------------------------------------------------------------
# 6. dominance and first-order equivalence


def test_criterion_6_dominance_and_stationarity():
    # 500 unilateral deviations on games whose stationary distribution is
    # policy-free, where the mismatch coefficient is exactly 1
    rng = np.random.default_rng(14)
    dominance_ok = True
    for k in range(500):
        rng_game = np.random.default_rng(70_000 + k)
        n_states = int(rng_game.integers(1, 4))
        T = rng_game.dirichlet(np.ones(n_states), size=n_states)
        transitions = np.repeat(T[:, None, :], 4, axis=1)
        rewards = rng_game.random((2, n_states, 4))
        game = StochasticGame(n_states, (2, 2), rewards, transitions)
        policy = random_profile(game, rng, margin=0.05)
        i = int(rng.integers(0, 2))
        deviation = policy.replace(i, random_profile(game, rng).probs[i])
        dominance_ok &= check_gradient_dominance(game, policy, deviation, 1.0).holds

    # first-order residual vanishes exactly where the best-response gap does
    grid = np.linspace(0.0, 1.0, 21)
    games = [generate(GeneratorSpec(kind="matching-pennies"))]
    rewards = np.zeros((2, 1, 4))
    rewards[0, 0] = [1.0, 0.8, 0.2, 0.0]
    rewards[1, 0] = [1.0, 0.2, 0.8, 0.0]
    games.append(StochasticGame(1, (2, 2), rewards, np.ones((1, 4, 1))))
    equivalence_ok = True
    for game in games:
        for x in grid:
            for y in grid:
                policy = PolicyProfile(
                    (np.array([[x, 1 - x]]), np.array([[y, 1 - y]]))
                )
                residual = first_order_residual(game, policy)
                gap = nash_gap(game, policy).max_gap
                equivalence_ok &= (residual <= 1e-8) == (gap <= 1e-6)
    ok = dominance_ok and equivalence_ok
    _criterion(
        6,
        "gradient dominance and stationarity equivalence",
        ok,
        f"dominance {dominance_ok}, grid equivalence {equivalence_ok}",
    )
    assert dominance_ok
    assert equivalence_ok


# ---------------------------------------------------------------------------
# 7. convergence benchmark


def test_criterion_7_convergence_benchmark():
    # entropy mirror, exponents (1, 1/3), log window at twice the certified
    # mixing constant, default scales, 10 seeds, 2e5 outer iterations
    all_ok = True
    details = []
    for kind in ("matching-pennies", "zerosum-switching"):
        result = convergence_benchmark(
            kind, iters=200_000, seeds=range(10), log_every=1000
        )
        clause = result["clauses"]
        all_ok &= all(clause.values())
        details.append(
            f"{kind}: end {result['median_end_dist']:.3f} "
            f"(early {result['median_early_dist']:.3f}), "
            f"coupling {result['median_fenchel_first_decile']:.2f}"
            f"->{result['median_fenchel_last_decile']:.2f}, "
            f"clauses {clause}"
        )
    _criterion(7, "convergence benchmark", all_ok, "; ".join(details))
    assert all_ok, "; ".join(details)


# ---------------------------------------------------------------------------
# 8. auxiliary inequality suite


def test_criterion_8_auxiliary_inequalities():
    rng = np.random.default_rng(21)
    product_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x = rng.random(n)
        y = rng.random(n)
        lhs = abs(np.prod(x) - np.prod(y))
        rhs = (2**n - 1) * np.abs(x - y).max()
        product_ok &= lhs <= rhs + 1e-12

    power_ok = True
    checked = 0
    for g in range(50):
        game = generate(
            GeneratorSpec(
                kind="random-ergodic",
                n_states=int(rng.integers(2, 4)),
                n_players=2,
                n_actions=2,
                eps=0.1,
                seed=90_000 + g,
            )
        )
        pi_a = random_profile(game, rng)
        pi_b = random_profile(game, rng)
        Pa = induced_transition_matrix(game, pi_a)
        Pb = induced_transition_matrix(game, pi_b)
        contraction = max(dobrushin_coefficient(Pa), dobrushin_coefficient(Pb))
        w = rng.dirichlet(np.ones(game.n_states))
        w2 = rng.dirichlet(np.ones(game.n_states))
        pol_inf = max(np.abs(x - y).max() for x, y in zip(pi_a.probs, pi_b.probs))
        const = (2**game.n_players - 1) * game.n_joint * game.n_states
        Pa_t, Pb_t = np.eye(game.n_states), np.eye(game.n_states)
        for t in range(1, 21):
            Pa_t, Pb_t = Pa_t @ Pa, Pb_t @ Pb
            lhs = np.abs((w - w2) @ (Pa_t - Pb_t)).sum()
            rhs = const * t * contraction ** (t - 1) * pol_inf * np.abs(w - w2).sum()
            power_ok &= lhs <= rhs + 1e-12
            checked += 1
    ok = product_ok and power_ok and checked == 1000
    _criterion(
        8,
        "auxiliary inequality suite",
        ok,
        f"product {product_ok}, transition powers {power_ok} ({checked} instances)",
    )
    assert ok
