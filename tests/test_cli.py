import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from sgl import cli, errors, learner
from sgl.cli import main
from sgl.games import StochasticGame, save_game
from sgl.generators import GeneratorSpec, generate


def scaled_game(kind, scale):
    """The generated game of this kind with 2 states, players and actions (the
    zero-sum kinds have their own sizes) and its rewards times scale."""
    game = generate(GeneratorSpec(kind=kind, n_states=2, n_players=2, n_actions=2, seed=3))
    return StochasticGame(game.n_states, game.n_actions, scale * game.rewards, game.transitions)


def _refuse(constant):
    raise AssertionError(f"non-strict JSON constant {constant}")


@pytest.fixture
def game_file(tmp_path):
    game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=1))
    path = tmp_path / "game.json"
    save_game(game, path)
    return path


class TestValidate:
    def test_good_file(self, game_file, capsys):
        assert main(["validate", str(game_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_row_sum_exits_one_with_indices(self, tmp_path, capsys):
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=2))
        doc = json.loads(json.dumps({
            "n_states": 2,
            "actions": [2, 2],
            "rewards": game.rewards.tolist(),
            "transitions": game.transitions.tolist(),
        }))
        doc["transitions"][0][1] = [0.6, 0.3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "state=0" in err and "joint_action=1" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_unknown_flag_exits_one(self, game_file, capsys):
        assert main(["validate", "--frobnicate", str(game_file)]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["dance"]) == 1


class TestAnalyze:
    def test_document_contents(self, game_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--game", str(game_file), "--samples", "4", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for key in (
            "values",
            "gradients",
            "nash_gap",
            "mixing",
            "mismatch_estimate",
            "lipschitz_estimate",
            "first_order_residual",
        ):
            assert key in doc
        assert doc["mixing"]["ok"] is True
        assert doc["mismatch_estimate"]["certificate"] == "sampled lower bound"

    def test_reports_the_certificate_learn_uses(self, tmp_path, capsys):
        # the oracle-audit game: a certificate from --samples and --seed
        # reported tau 1.275 while learn ran with 1.768
        game = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3,
                          eps=0.1, seed=0)
        )
        path = tmp_path / "game.json"
        save_game(game, path)
        cert = game.mixing_certificate
        for seed in ("0", "1"):
            assert main(["analyze", "--game", str(path), "--seed", seed]) == 0
            mixing = json.loads(capsys.readouterr().out)["mixing"]
            assert mixing["tau"] == cert.tau
            assert mixing["contraction"] == cert.contraction

    def test_failed_certificate_writes_null_tau(self, tmp_path, capsys, stay_switch_game):
        # the certificate's tau is infinite; strict JSON has no Infinity
        game_path = tmp_path / "stay_switch.json"
        save_game(stay_switch_game(), game_path)
        assert main(["analyze", "--game", str(game_path)]) == 0
        mixing = json.loads(capsys.readouterr().out, parse_constant=_refuse)["mixing"]
        assert mixing["ok"] is False and mixing["tau"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_estimate_exits_one(self, tmp_path, capsys):
        # payoffs near the float range: the Lipschitz ratio overflows
        game_path = tmp_path / "mp_huge.json"
        save_game(scaled_game("matching-pennies", 1e308), game_path)
        assert main(["analyze", "--game", str(game_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: lipschitz_estimate is not a finite number" in captured.err


class TestGradient:
    def test_fd_close_to_exact(self, game_file, tmp_path, capsys):
        out = tmp_path / "grad.json"
        code = main(
            [
                "gradient", "--game", str(game_file), "--policy", "uniform",
                "--method", "fd", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_abs_diff_vs_exact"] <= 1e-4
        assert "max abs difference" in capsys.readouterr().err

    def test_exact_output_shape(self, game_file, capsys):
        assert main(
            ["gradient", "--game", str(game_file), "--policy", "uniform"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["gradient"]) == 2
        assert doc["coordinates"] == "reduced"

    def test_spsa_estimate_runs(self, game_file, capsys):
        code = main(
            [
                "gradient", "--game", str(game_file), "--policy", "uniform",
                "--method", "spsa", "--delta", "0.2", "--draws", "2000",
                "--seed", "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["draws"] == 2000
        assert doc["max_abs_diff_vs_exact"] < 0.5  # loose Monte Carlo sanity

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "spsa", "--draws", "0"],
            ["--method", "spsa", "--draws", "-3"],
            ["--method", "spsa", "--delta", "0"],
            ["--method", "spsa", "--delta", "-0.05"],
            ["--method", "fd", "--step", "0"],
        ],
    )
    def test_bad_estimator_argument_exits_one(self, game_file, capsys, flags):
        argv = ["gradient", "--game", str(game_file), "--policy", "uniform", *flags]
        assert main(argv) == 1
        message = "n_draws: need an integer from 1 to" if "--draws" in flags else "must be positive"
        assert message in capsys.readouterr().err

    def test_policy_file_argument(self, game_file, tmp_path, capsys):
        pol_path = tmp_path / "policy.json"
        # the uniform profile of game_file's 2 states, 2 players of 2 actions
        uniform = [[[0.5, 0.5], [0.5, 0.5]]] * 2
        pol_path.write_text(json.dumps({"probs": uniform}))
        assert main(
            ["gradient", "--game", str(game_file), "--policy", str(pol_path)]
        ) == 0

    def test_non_ergodic_profile_exits_one(self, tmp_path, capsys):
        # every joint action keeps the state: the uniform profile's chain is
        # the identity, which has two unit-circle eigenvalues
        transitions = np.stack([np.tile(np.eye(2)[s], (2, 1)) for s in range(2)])
        game_path = tmp_path / "identity.json"
        save_game(StochasticGame(2, (2,), np.zeros((1, 2, 2)), transitions), game_path)
        assert main(["gradient", "--game", str(game_path), "--policy", "uniform"]) == 1
        assert "error: ergodicity check failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_samples_exit_one(self, tmp_path, capsys):
        # squared samples of payoffs near 1e200 would overflow: the smoothed
        # gradient refuses the rewards before its first draw
        game_path = tmp_path / "mp_huge.json"
        save_game(scaled_game("matching-pennies", 1e200), game_path)
        argv = [
            "gradient", "--game", str(game_path), "--policy", "uniform",
            "--method", "spsa", "--draws", "2000",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over 2000 draws can overflow the smoothed gradient's samples" in captured.err
        assert "max abs difference" not in captured.err

    def test_a_draw_count_beyond_the_largest_float_exits_one(self, tmp_path, capsys):
        # such a count once raised a bare OverflowError (exit 2) where the
        # smoothing door multiplied it into a float
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        argv = [
            "gradient", "--game", str(game_path), "--policy", "uniform",
            "--method", "spsa", "--draws", str(10**400),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_draws: need an integer from 1 to 1.7976931348623157e+308" in captured.err


class TestLearn:
    def test_matching_pennies_with_sqrt_horizon_preset(self, tmp_path, capsys):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        game_path = tmp_path / "mp.json"
        save_game(game, game_path)
        out_dir = tmp_path / "run"
        code = main(
            [
                "learn", "--game", str(game_path), "--iters", "300",
                "--seed", "0", "--horizon", "power", "--ref", "uniform",
                "--log-every", "100", "--out", str(out_dir),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iters"] == 300
        assert "final_values" in summary and "final_dist_to_ref" in summary
        lines = (out_dir / "run.csv").read_text().strip().splitlines()
        assert lines[0] == "t,gamma,delta,horizon,player,value,fenchel,nash_gap,dist_to_ref,est_norm"
        ts = [int(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)
        assert set(ts) == {100, 200, 300}

    def test_sqrt_horizon_preset_takes_overrides(self, tmp_path, capsys):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        out_dir = tmp_path / "run"
        code = main(
            [
                "learn", "--game", str(game_path), "--iters", "10", "--log-every", "5",
                "--horizon", "power", "--gamma-exp", "0.9", "--delta-scale", "0.05",
                "--horizon-param", "0.7", "--out", str(out_dir),
            ]
        )
        assert code == 0
        schedule = json.loads((out_dir / "run.json").read_text())["schedule"]
        assert schedule == {
            "gamma_exp": 0.9,
            "delta_exp": 1 / 3,
            "gamma_scale": 1.0,
            "delta_scale": 0.05,
            "horizon_mode": "power",
            "horizon_param": 0.7,
        }

    def test_power_horizon_defaults_to_square_root_window(self, tmp_path, capsys):
        # a 3-state game that keeps its state with probability 0.9: its
        # certified tau (about 15.5) must not become a power-window exponent
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=3, seed=7))
        transitions = 0.9 * np.eye(3)[:, None, :] + 0.1 * game.transitions
        game_path = tmp_path / "sticky.json"
        save_game(StochasticGame(3, (2, 2), game.rewards, transitions), game_path)
        out_dir = tmp_path / "run"
        argv = [
            "learn", "--game", str(game_path), "--iters", "6", "--log-every", "3",
            "--horizon", "power", "--out", str(out_dir),
        ]
        assert main(argv) == 0
        schedule = json.loads((out_dir / "run.json").read_text())["schedule"]
        assert schedule["horizon_mode"] == "power"
        assert schedule["horizon_param"] == 0.5

    @pytest.mark.parametrize("iters, message", [("2", "byte cap"), ("10000000000", "overflows")])
    def test_oversized_power_window_exits_one(self, tmp_path, capsys, iters, message):
        # a window of 2**31 + 1 stages at t = 1 asked numpy for 48 GiB and
        # exited 2; the run is now refused before its first iteration
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        argv = [
            "learn", "--game", str(game_path), "--iters", iters,
            "--horizon", "power", "--horizon-param", "31",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_schedule_warning_on_bad_exponents(self, tmp_path, capsys):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        game_path = tmp_path / "mp.json"
        save_game(game, game_path)
        code = main(
            [
                "learn", "--game", str(game_path), "--iters", "20",
                "--seed", "0", "--gamma-exp", "0.5", "--delta-exp", "0.25",
                "--log-every", "10",
            ]
        )
        assert code == 0
        assert "schedule conditions failing" in capsys.readouterr().err

    def test_uncertified_mixing_exits_one(self, tmp_path, capsys, stay_switch_game):
        # the certificate fails, so the default log window is not finite
        game_path = tmp_path / "stay_switch.json"
        save_game(stay_switch_game(), game_path)
        argv = ["learn", "--game", str(game_path), "--iters", "20", "--log-every", "10"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "mixing certificate failed at sampled profile" in err
        # an explicit window needs no certified mixing constant
        assert main([*argv, "--horizon", "power", "--horizon-param", "0.5"]) == 0
        assert main([*argv, "--horizon", "power"]) == 0

    def test_given_window_parameter_skips_certified_tau(self, tmp_path, capsys, monkeypatch):
        def refuse(cert):
            raise AssertionError("certified_tau called")

        monkeypatch.setattr(learner, "certified_tau", refuse)
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        out_dir = tmp_path / "run"
        argv = [
            "learn", "--game", str(game_path), "--iters", "4", "--log-every", "2",
            "--horizon-param", "3", "--out", str(out_dir),
        ]
        assert main(argv) == 0
        schedule = json.loads((out_dir / "run.json").read_text())["schedule"]
        assert (schedule["horizon_mode"], schedule["horizon_param"]) == ("log", 3.0)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "game": str(game_path),
                    "grid": [{"p": 1.0, "q": 0.25, "T0": 3.0}],
                    "seeds": [0],
                    "iters": 4,
                    "log_every": 2,
                }
            )
        )
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 1

    def test_preset_flag_is_gone(self, tmp_path, capsys):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        argv = ["learn", "--game", str(game_path), "--iters", "4", "--preset", "default"]
        assert main(argv) == 1
        assert "unrecognized arguments: --preset" in capsys.readouterr().err

    def test_log_every_below_one_exits_one(self, tmp_path, capsys):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        argv = ["learn", "--game", str(game_path), "--iters", "20", "--log-every", "0"]
        assert main(argv) == 1
        assert "log_every: need an integer of at least 1" in capsys.readouterr().err

    def test_negative_log_window_exits_one(self, tmp_path, capsys):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        argv = ["learn", "--game", str(game_path), "--iters", "20", "--horizon-param", "-5"]
        assert main(argv) == 1
        assert "horizon_param must be nonnegative" in capsys.readouterr().err

    def test_env_var_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SGL_SEED", "123")
        game = generate(GeneratorSpec(kind="matching-pennies"))
        game_path = tmp_path / "mp.json"
        save_game(game, game_path)
        code = main(
            ["learn", "--game", str(game_path), "--iters", "10", "--log-every", "5"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 123

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_malformed_env_seed_exits_one(self, game_file, capsys, monkeypatch, value):
        # read when the parser is built, so even validate, which takes no seed
        monkeypatch.setenv("SGL_SEED", value)
        assert main(["validate", str(game_file)]) == 1
        assert f"error: SGL_SEED must be a nonnegative integer, got {value!r}" in (
            capsys.readouterr().err
        )


class TestGenerateCommand:
    def test_generate_validates_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = main(
            [
                "generate", "--kind", "random-ergodic", "--states", "3",
                "--actions", "2", "3", "--eps", "0.05", "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--kind", "random-ergodic", "--states", "5",
                "--eps", "0.3", "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1

    def test_too_many_joint_actions_exits_one(self, tmp_path, capsys):
        # 3**40 joint actions; an int64 product would wrap to a negative size
        out = tmp_path / "x.json"
        code = main(
            [
                "generate", "--kind", "random-ergodic", "--players", "40",
                "--actions", "3", "--eps", "0", "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{3**40} joint actions" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_from_config(self, tmp_path, capsys):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        game_path = tmp_path / "mp.json"
        save_game(game, game_path)
        cfg = {
            "game": str(game_path),
            "grid": [{"p": 1.0, "q": 1 / 3, "horizon": "log", "T0": 0.0}],
            "seeds": [0, 1],
            "iters": 30,
            "log_every": 10,
            "out": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 2
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(
                "log_every", 0, "log_every: need an integer of at least 1",
                id="log_every-0-log_every must be at least 1",
            ),
            ("log_every", 2.9, "log_every=2.9: need an integer"),
            pytest.param(
                "iters", -5, "iters: need an integer of at least 0",
                id="iters--5-iters must be nonnegative",
            ),
            ("iters", 10.5, "iters=10.5: need an integer"),
        ],
    )
    def test_batch_wide_error_exits_one(self, tmp_path, capsys, key, value, message):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        cfg = {
            "game": str(game_path),
            "grid": [{"p": 1.0, "q": 1 / 3, "horizon": "log", "T0": 0.0}],
            "seeds": [0, 1],
            "iters": 10,
            key: value,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("game", 3, "'game' must be a string"),
            ("ref", 3, "'ref' must be a string"),
            ("out", 3, "'out' must be a string"),
            ("grid", 3, "'grid' must be a list"),
            ("grid", [3], "bad grid entry 3"),
            ("seeds", 3, "'seeds' must be a list"),
            pytest.param(
                "seeds", ["x"], "seed='x': need an integer of at least 0",
                id="seeds-value6-seeds must be a list of integers",
            ),
            pytest.param(
                "seeds", [1.5], "seed=1.5: need an integer of at least 0",
                id="seeds-value7-seeds must be a list of integers",
            ),
            ("grid", [{"p": "1.0", "q": True, "T0": "0"}], "'p' must be a number, not '1.0'"),
            ("grid", [{"p": 1.0, "q": True, "T0": 0.0}], "'q' must be a number, not True"),
            ("grid", [{"p": 1, "q": 0.3, "T0": "0"}], "'T0' must be a number, not '0'"),
            ("grid", [{"p": 1, "q": 0.3, "T0": 0, "gamma0": "1"}], "'gamma0' must be a number"),
            ("grid", [{"p": 1, "q": 0.3, "T0": 0, "delta0": False}], "'delta0' must be a number"),
        ],
    )
    def test_mistyped_config_exits_one(self, tmp_path, capsys, key, value, message):
        game_path = tmp_path / "mp.json"
        save_game(generate(GeneratorSpec(kind="matching-pennies")), game_path)
        cfg = {
            "game": str(game_path),
            "grid": [{"p": 1.0, "q": 1 / 3, "horizon": "log", "T0": 0.0}],
            "seeds": [0, 1],
            "iters": 10,
            "log_every": 5,
            key: value,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CLI property: every run exits 0 with strict JSON or 1 with a package
# error; exit 2 is a defect


JSON_COMMANDS = ("analyze", "gradient", "learn", "sweep")


def run_quietly(argv):
    """main(argv) in-process with warnings silenced: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def property_grid(tmp_path):
    """The argv of every run: each subcommand on each generated game at each
    reward scale and --seed, and generate at each --seed."""
    runs = []
    for kind in ("random-ergodic", "matching-pennies", "zerosum-switching"):
        for scale in (1.0, 1e100, 1e200, 1e300):
            game = tmp_path / f"{kind}_{scale:g}.json"
            save_game(scaled_game(kind, scale), game)
            runs.append(["validate", str(game)])
            for seed in ("-1", "0"):
                on_game = ["--game", str(game), "--seed", seed]
                learn = ["learn", *on_game, "--iters", "4", "--log-every", "2"]
                config = tmp_path / f"sweep_{kind}_{scale:g}_{seed}.json"
                config.write_text(json.dumps({
                    "game": str(game), "grid": [{"p": 1.0, "q": 1 / 3, "T0": 1.0}],
                    "seeds": [int(seed)], "iters": 4, "log_every": 2,
                }))
                runs += [
                    ["analyze", *on_game, "--samples", "2"],
                    ["gradient", *on_game, "--policy", "uniform", "--method", "exact"],
                    ["gradient", *on_game, "--policy", "uniform", "--method", "fd"],
                    ["gradient", *on_game, "--policy", "uniform", "--method", "spsa",
                     "--draws", "16"],
                    learn,
                    [*learn, "--oracle", "--ref", "uniform", "--mirror", "euclidean"],
                    ["sweep", "--config", str(config)],
                ]
    for seed in ("-1", "0"):
        out = tmp_path / f"generated_{seed}.json"
        runs.append(["generate", "--kind", "random-ergodic", "--seed", seed, "--out", str(out)])
    return runs


def malformed_inputs(tmp_path):
    """The argv of runs on inputs outside what the package accepts, each of
    which must exit 1."""
    game = tmp_path / "mp.json"
    save_game(generate(GeneratorSpec(kind="matching-pennies")), game)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n_states": 1, "meta": {"name": "caf\xe9"}}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"n_states": 1e400, "actions": [2], "rewards": [], "transitions": []}')
    negative_seed = tmp_path / "negative_seed.json"
    negative_seed.write_text(json.dumps({
        "game": str(game), "grid": [{"p": 1.0, "q": 1 / 3, "T0": 1.0}],
        "seeds": [-1], "iters": 4,
    }))
    # (t+1)**400 overflows, and (t+1)**-400 underflows to 0, from t = 5 or 6
    learn = ["learn", "--game", str(game), "--iters", "10", "--log-every", "5"]
    return [
        ["validate", str(game / "under_a_file.json")],
        ["validate", str(latin1)],
        ["validate", str(deep)],
        ["validate", str(huge)],
        ["gradient", "--game", str(game), "--policy", str(latin1)],
        ["sweep", "--config", str(latin1)],
        ["sweep", "--config", str(negative_seed)],
        [*learn, "--gamma-exp", "400"],
        [*learn, "--delta-exp", "400"],
        [*learn, "--delta-exp", "-400"],
    ]


class TestExitCodes:
    def test_property_grid_exits_zero_or_one(self, tmp_path):
        defects, loose = [], []
        for argv in property_grid(tmp_path):
            code, out, err = run_quietly(argv)
            if code not in (0, 1):
                defects.append((argv, code, err))
            elif code == 0 and argv[0] in JSON_COMMANDS:
                try:
                    json.loads(out, parse_constant=_refuse)
                except (AssertionError, ValueError) as exc:
                    loose.append((argv, str(exc)))
        assert defects == [] and loose == []

    def test_malformed_inputs_exit_one(self, tmp_path):
        runs = [(argv, *run_quietly(argv)) for argv in malformed_inputs(tmp_path)]
        assert [(argv, code) for argv, code, _, _ in runs if code != 1] == []
        assert all(err.splitlines()[-1].startswith("error: ") for *_, err in runs)

    def test_negative_seed_flag_is_a_usage_error(self, game_file, capsys):
        argv = ["analyze", "--game", str(game_file), "--seed", "-1"]
        assert main(argv) == 1
        assert "argument --seed: invalid seed value: '-1'" in capsys.readouterr().err

    def test_a_bare_runtime_error_is_a_defect(self, game_file, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("an sgl defect")

        monkeypatch.setattr(cli, "_cmd_validate", broken)
        assert main(["validate", str(game_file)]) == 2
        assert capsys.readouterr().err == "runtime error: an sgl defect\n"

    def test_a_new_package_error_exits_one(self, game_file, monkeypatch, capsys):
        class FreshError(errors.SglError):
            pass

        def refusing(args):
            raise FreshError("refused")

        monkeypatch.setattr(cli, "_cmd_validate", refusing)
        assert main(["validate", str(game_file)]) == 1
        assert capsys.readouterr().err == "error: refused\n"

    def test_every_package_error_is_an_sgl_error(self):
        classes = [
            v for v in vars(errors).values()
            if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == errors.__name__
        ]
        assert errors.SglError in classes and errors.ConfigError in classes
        for c in classes:
            assert issubclass(c, errors.SglError)
            # the built-in base stays, so except ValueError / RuntimeError still catch it
            base = RuntimeError if c is errors.ErgodicityError else ValueError
            assert c is errors.SglError or issubclass(c, base)
