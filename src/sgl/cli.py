"""Command-line harness.

Subcommands: validate, analyze, gradient, learn, generate, sweep. Each
prints strict JSON (validate and generate one line of text). Exit codes:
0 success; 1 bad usage, a package error (sgl.errors.SglError) or an OS
error on a path argument; 2 anything else, which is a defect in sgl.
The environment variable SGL_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, games, generators, learner, mirror, spsa
from .errors import ConfigError, DomainError, SglError


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """A seed from --seed or from SGL_SEED: a nonnegative decimal integer.
    argparse turns a bad --seed into its own usage error, so only a bad
    SGL_SEED shows this message."""
    if not text.isdecimal():  # digits only: no sign, no blank
        raise ConfigError(f"SGL_SEED must be a nonnegative integer, got {text!r}")
    return int(text)


_seed.__name__ = "seed"  # argparse's "invalid seed value: '-1'"


def _nonfinite_key(value, key: str) -> str | None:
    """The key path (e.g. mixing.tau, stderr[0][1]) of the first NaN or
    infinity in a JSON value under key, or None."""
    if isinstance(value, dict):
        children = ((f"{key}.{k}".lstrip("."), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return key if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_nonfinite_key(v, k) for k, v in children)), None)


def _emit(doc: dict, out: str | None) -> None:
    """Write doc as strict JSON to out, or print it; a NaN or infinity in
    it is a DomainError naming its key."""
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError:  # a NaN or infinity
        raise DomainError(f"{_nonfinite_key(doc, '')} is not a finite number") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    game = games.load_game(args.game)
    print(
        f"ok: {game.n_states} states, {game.n_players} players, "
        f"actions {list(game.n_actions)}, hash {games.game_hash(game)[:12]}"
    )
    return 0


def _cmd_analyze(args) -> int:
    game = games.load_game(args.game)
    # the sample profiles, one float per state and action each, fit the byte cap
    samples = games._count(
        "samples", args.samples, 1,
        games.MAX_WINDOW_BYTES // (8 * game.n_states * sum(game.n_actions)),
    )
    policy = games._profile_arg(game, args.policy)
    rng = np.random.default_rng(args.seed)
    # the certificate learn, sweep and default_schedule use
    cert = game.mixing_certificate
    doc = {
        "game": {
            "hash": games.game_hash(game),
            "n_states": game.n_states,
            "actions": list(game.n_actions),
        },
        "mixing": {
            "contraction": cert.contraction,
            "tau": cert.tau if cert.ok else None,  # infinite when the certificate fails
            "ok": cert.ok,
            "certificate": "sampled",
            "eps_floor": cert.eps_floor,
            "eps_floor_condition": cert.eps_floor > 0.0,
        },
    }
    if not cert.ok:
        doc["mixing"]["failing_policy_index"] = cert.failing_index
        _emit(doc, args.out)
        print("mixing certification failed; skipping value analysis", file=sys.stderr)
        return 0

    report = analysis.exact_value(game, policy)
    grad = analysis.exact_gradient(game, policy)
    gaps = analysis.nash_gap(game, policy)
    sample_profiles = [games.random_profile(game, rng, margin=0.05) for _ in range(samples)]
    sample_profiles.append(games.uniform_profile(game))
    doc.update(
        {
            "values": report.values.tolist(),
            "stationary": report.stationary.tolist(),
            "gradients": [b.tolist() for b in grad.blocks],
            "nash_gap": {"per_player": gaps.gaps.tolist(), "max": gaps.max_gap},
            "first_order_residual": analysis.first_order_residual(game, policy),
            "mismatch_estimate": {
                "value": analysis.estimate_mismatch(game, sample_profiles),
                "certificate": "sampled lower bound",
            },
            "lipschitz_estimate": analysis.lipschitz_probe(
                game, n_pairs=max(2, samples), rng=rng
            ),
        }
    )
    _emit(doc, args.out)
    return 0


def _cmd_gradient(args) -> int:
    game = games.load_game(args.game)
    policy = games._profile_arg(game, args.policy)
    exact = [
        spsa.reduced_from_full(b).tolist()
        for b in analysis.exact_gradient(game, policy).blocks
    ]
    doc = {"method": args.method, "coordinates": "reduced"}
    if args.method == "exact":
        doc["gradient"] = exact
    elif args.method == "fd":
        fd = analysis.finite_difference_gradient(game, policy, step=args.step)
        doc["gradient"] = [b.tolist() for b in fd]
        doc["max_abs_diff_vs_exact"] = _max_abs_diff(fd, exact)
    else:  # spsa
        rng = np.random.default_rng(args.seed)
        means, stderrs = spsa.smoothed_gradient_estimate(
            game, policy, args.delta, args.draws, rng
        )
        doc["delta"] = args.delta
        doc["draws"] = args.draws
        doc["gradient"] = [m.tolist() for m in means]
        doc["stderr"] = [s.tolist() for s in stderrs]
        doc["max_abs_diff_vs_exact"] = _max_abs_diff(means, exact)
    _emit(doc, args.out)
    if "max_abs_diff_vs_exact" in doc:
        print(
            f"max abs difference vs exact: {doc['max_abs_diff_vs_exact']:.3e}",
            file=sys.stderr,
        )
    return 0


def _max_abs_diff(blocks, exact) -> float:
    """Largest entry of |block - exact| over the players' blocks."""
    return max(
        float(np.abs(b - np.asarray(e)).max()) if b.size else 0.0
        for b, e in zip(blocks, exact)
    )


def _cmd_learn(args) -> int:
    game = games.load_game(args.game)
    reg = mirror.make_regularizer(args.mirror)
    cert = game.mixing_certificate
    schedule = learner._preset_schedule(
        game, args.horizon, args.horizon_param, args.gamma_scale,
        gamma_exp=args.gamma_exp, delta_exp=args.delta_exp, delta_scale=args.delta_scale,
    )
    reference = games._profile_arg(game, args.ref)
    init_policy = games._profile_arg(game, args.init_policy)
    report = learner.validate_schedule(schedule, cert.tau)
    if not report.ok:
        failing = [k for k, v in report.conditions.items() if not v]
        print(f"warning: schedule conditions failing: {failing}", file=sys.stderr)

    log = learner.run(
        game,
        schedule,
        reg,
        args.iters,
        args.seed,
        oracle_mode=args.oracle,
        reference=reference,
        start_state=args.start_state,
        log_every=args.log_every,
        init_policy=init_policy,
        out_dir=args.out,
    )
    final = log.final_state
    summary = {
        "iters": args.iters,
        "seed": args.seed,
        "mirror": reg.kind,
        "schedule_ok": report.ok,
        "clamped_steps": log.clamped_steps,
        "final_policy": [b.tolist() for b in final.policy.probs],
    }
    if log.diagnostics:
        last = log.diagnostics[-1]
        summary["final_values"] = (
            [None] * game.n_players if last.values is None else last.values.tolist()
        )
        summary["final_nash_gap"] = last.max_gap
        if reference is not None:
            summary["final_dist_to_ref"] = last.profile_dist
    _emit(summary, None)
    return 0


def _cmd_generate(args) -> int:
    actions = tuple(args.actions) if len(args.actions) > 1 else int(args.actions[0])
    spec = generators.GeneratorSpec(
        kind=args.kind,
        n_states=args.states,
        n_players=args.players,
        n_actions=actions,
        eps=args.eps,
        reward_low=args.reward_low,
        reward_high=args.reward_high,
        seed=args.seed,
    )
    game = generators.generate(spec)
    games.save_game(game, args.out)
    print(
        f"wrote {args.out}: {game.n_states} states, {game.n_players} players, "
        f"hash {games.game_hash(game)[:12]}"
    )
    return 0


def _cmd_sweep(args) -> int:
    result = generators.run_sweep_config(args.config)
    doc = result.summary()
    _emit(
        {
            "schedules": len(doc["grid"]),
            "seeds": doc["seeds"],
            "completed": len(doc["runs"]),
            "failures": doc["failures"],
        },
        None,
    )
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="sgl", description=__doc__)
    seed = _seed(os.environ.get("SGL_SEED", "0"))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a game file against its invariants")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="exact analysis document for a game")
    p.add_argument("--game", required=True)
    p.add_argument("--policy", default="uniform", help="policy file or 'uniform'")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradient", help="payoff gradient in reduced coordinates")
    p.add_argument("--game", required=True)
    p.add_argument("--policy", required=True, help="policy file or 'uniform'")
    p.add_argument("--method", choices=("exact", "fd", "spsa"), default="exact")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--draws", type=int, default=20000)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradient)

    p = sub.add_parser("learn", help="run the bandit learner")
    p.add_argument("--game", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--mirror", choices=mirror.KINDS, default="entropy")
    p.add_argument("--gamma-exp", type=float, default=None)
    p.add_argument("--delta-exp", type=float, default=None)
    p.add_argument("--gamma-scale", type=float, default=1.0)
    p.add_argument("--delta-scale", type=float, default=None)
    p.add_argument("--horizon", choices=("log", "power"), default="log")
    p.add_argument("--horizon-param", type=float, default=None)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--ref", default=None, help="reference policy file or 'uniform'")
    p.add_argument("--init-policy", default=None)
    p.add_argument("--start-state", type=int, default=0)
    p.add_argument("--log-every", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("generate", help="write a benchmark game file")
    p.add_argument("--kind", choices=generators.KINDS, required=True)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--actions", type=int, nargs="+", default=[2])
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--reward-low", type=float, default=0.0)
    p.add_argument("--reward-high", type=float, default=1.0)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="run a schedule/seed sweep from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads SGL_SEED
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SglError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a defect
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
