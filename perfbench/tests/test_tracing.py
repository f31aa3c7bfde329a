"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import numpy as np

import sgl
import tracing
from sgl import games, generators, learner


def test_self_time_arithmetic_on_synthetic_tree():
    # A [0, 10] has children B [1, 4] and C [5, 9]; C has child D [6, 8];
    # E [12, 13] is a second root.
    spans = [
        ("A", 0.0, 10.0, -1, 0),
        ("B", 1.0, 4.0, 0, 0),
        ("C", 5.0, 9.0, 0, 0),
        ("D", 6.0, 8.0, 2, 0),
        ("B", 12.0, 13.0, -1, 1),
    ]
    table = tracing.self_times(spans)
    assert table["A"] == [1, 3.0, 10.0]
    assert table["B"] == [2, 4.0, 4.0]
    assert table["C"] == [1, 2.0, 4.0]
    assert table["D"] == [1, 2.0, 2.0]
    assert sum(entry[1] for entry in table.values()) == tracing.root_time(spans) == 11.0


def _snapshot():
    owners = [sgl, sgl.games, sgl.analysis, sgl.spsa, sgl.mirror, sgl.learner, sgl.generators]
    snap = {(o.__name__, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    snap["PolicyProfile.__post_init__"] = games.PolicyProfile.__dict__["__post_init__"]
    snap["RunLog.write"] = learner.RunLog.__dict__["write"]
    return snap


def test_wrappers_cover_every_name_and_restore_originals():
    before = _snapshot()
    tracer = tracing.Tracer(sgl, "test")
    tracer.install()
    try:
        for module, name in [
            (sgl.learner, "perturb"),
            (sgl.learner, "fenchel_coupling"),
            (sgl.learner, "certify_mixing"),
            (sgl.analysis, "analyze_chain"),
            (sgl.generators, "run"),
            (sgl.generators, "nash_gap"),
            (sgl, "exact_value"),
            (sgl.spsa, "sample_sphere"),
        ]:
            assert getattr(module, name) is not before[(module.__name__, name)], name
        assert games.PolicyProfile.__dict__["__post_init__"] is not before["PolicyProfile.__post_init__"]
        assert learner.RunLog.__dict__["write"] is not before["RunLog.write"]
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_spans_nest_under_their_callers():
    game = generators.generate(generators.GeneratorSpec(kind="zerosum-switching"))
    policy = games.uniform_profile(game)
    plain = sgl.analysis.exact_value(game, policy).values
    tracer = tracing.Tracer(sgl, "test")
    tracer.install()
    try:
        tracer.job = 7
        traced = sgl.analysis.exact_value(game, policy).values
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(plain, traced)
    names = [s[0] for s in tracer.spans]
    assert names == [
        "analysis.exact_value",
        "games.analyze_chain",
        "games.induced_transition_matrix",
        "games.stationary_distribution",
    ]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1]
    assert all(s[4] == 7 for s in tracer.spans)
    assert all(start <= end for _, start, end, _, _ in tracer.spans)
