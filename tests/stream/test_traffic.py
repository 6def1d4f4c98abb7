"""TrafficGenerator: seeded open-loop arrivals, mixes, rate profiles."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.stream.traffic import (
    MIXES,
    RateProfile,
    SessionArchetype,
    TrafficGenerator,
)


def _gen(**kwargs):
    defaults = dict(mix="mixed", rate=8.0, duration=2.0, seed=11, detail=0.25)
    defaults.update(kwargs)
    return TrafficGenerator(**defaults)


def _fingerprint(arrivals):
    return [
        (
            a.time,
            a.session_id,
            a.session.scene,
            a.session.frame_budget,
            a.session.detail,
            a.session.target_fps,
            tuple(
                tuple(np.asarray(c.position)) for c in a.session.trajectory
            ),
        )
        for a in arrivals
    ]


def test_same_seed_is_bitwise_identical():
    a = _gen().generate()
    b = _gen().generate()
    assert _fingerprint(a) == _fingerprint(b)


def test_different_seeds_differ():
    a = _gen(seed=1).generate()
    b = _gen(seed=2).generate()
    assert _fingerprint(a) != _fingerprint(b)


def test_arrivals_sorted_and_inside_window():
    arrivals = _gen(rate=20.0).generate()
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    assert all(0.0 < t < 2.0 for t in times)


def test_session_ids_unique_and_archetype_tagged():
    arrivals = _gen(rate=20.0).generate()
    ids = [a.session_id for a in arrivals]
    assert len(set(ids)) == len(ids)
    names = {a.name for a in MIXES["mixed"]}
    assert all(i.rsplit("-", 1)[0] in names for i in ids)


def test_frame_budgets_and_details_follow_archetypes():
    arrivals = _gen(rate=30.0).generate()
    by_name = {a.name: a for a in MIXES["mixed"]}
    assert arrivals, "high-rate window must generate sessions"
    for arrival in arrivals:
        arch = by_name[arrival.session_id.rsplit("-", 1)[0]]
        lo, hi = arch.frames
        assert lo <= arrival.session.frame_budget <= hi
        assert arrival.session.detail == pytest.approx(arch.detail * 0.25)
        if arch.target_fps is None:
            assert arrival.session.target_fps is None
        else:
            assert arrival.session.target_fps in arch.target_fps


def test_mixed_mix_samples_qos_sessions():
    arrivals = _gen(rate=40.0, duration=3.0).generate()
    assert any(a.session.target_fps is not None for a in arrivals)
    assert any(a.session.target_fps is None for a in arrivals)


def test_rate_scales_expected_arrival_count():
    slow = len(_gen(rate=5.0, duration=4.0, seed=0).generate())
    fast = len(_gen(rate=50.0, duration=4.0, seed=0).generate())
    assert fast > 2 * slow


def test_max_sessions_caps_generation():
    arrivals = _gen(rate=50.0, max_sessions=5).generate()
    assert len(arrivals) == 5


def test_profiles_shape_the_rate():
    """Diurnal concentrates arrivals mid-window; ramp toward the end."""
    constant = RateProfile("constant")
    diurnal = RateProfile("diurnal", floor=0.1)
    ramp = RateProfile("ramp", floor=0.1)
    assert constant.multiplier(0.3) == 1.0
    assert diurnal.multiplier(0.5) == pytest.approx(1.0)
    assert diurnal.multiplier(0.0) == pytest.approx(0.1)
    assert ramp.multiplier(0.0) == pytest.approx(0.1)
    assert ramp.multiplier(1.0) == pytest.approx(1.0)
    # Statistically: the ramp's second half holds most arrivals.
    arrivals = _gen(
        rate=60.0, duration=4.0, seed=5, profile=ramp
    ).generate()
    late = sum(1 for a in arrivals if a.time > 2.0)
    assert late > len(arrivals) - late


def test_generate_sessions_matches_generate():
    gen = _gen()
    assert [a.session_id for a in gen.generate()] == [
        s.session_id for s in gen.generate_sessions()
    ]


def test_compact_mode_is_bitwise_equivalent():
    """Compact generation (digest-scale) must change nothing observable
    except the trajectory's materialized pose count."""
    full = _gen(rate=40.0, duration=3.0, pipeline="digest").generate()
    compact = _gen(
        rate=40.0, duration=3.0, pipeline="digest", compact=True
    ).generate()
    assert len(full) == len(compact)
    for a, b in zip(full, compact):
        assert a.time == b.time
        assert a.session_id == b.session_id
        assert a.session.scene == b.session.scene
        assert a.session.frame_budget == b.session.frame_budget
        assert a.session.detail == b.session.detail
        assert a.session.target_fps == b.session.target_fps
        assert b.session.trajectory.n_frames == 1
        assert np.array_equal(
            np.asarray(a.session.trajectory.camera_at(0).position),
            np.asarray(b.session.trajectory.camera_at(0).position),
        )


def test_compact_sessions_ride_the_digest_pipeline():
    arrivals = _gen(pipeline="digest", compact=True).generate()
    assert all(a.session.pipeline == "digest" for a in arrivals)


@pytest.mark.parametrize(
    "profile, mix, rate, duration, seed",
    [
        (None, "mixed", 2500.0, 4.0, 3),
        (RateProfile("diurnal", floor=0.2), "mixed", 2500.0, 4.0, 3),
        (RateProfile("ramp", floor=0.2), "mixed", 2500.0, 4.0, 3),
        (None, "light", 3500.0, 3.0, 7),
        (RateProfile("diurnal", floor=0.2), "light", 3500.0, 0.6, 7),
        (RateProfile("ramp", floor=0.2), "light", 3500.0, 0.6, 7),
    ],
    ids=[
        "None", "profile1", "profile2",
        "light-constant", "light-diurnal", "light-ramp",
    ],
)
def test_arrival_counts_match_analytic_expectation(
    profile, mix, rate, duration, seed
):
    """At 10^3-10^4-session scale the thinned-Poisson arrival count
    must sit within 5 standard deviations of rate x duration x mean
    multiplier, for every rate profile."""
    gen = _gen(
        mix=mix,
        rate=rate,
        duration=duration,
        seed=seed,
        profile=profile,
        pipeline="digest",
        compact=True,
    )
    expected = gen.expected_sessions()
    mult = 1.0 if profile is None else profile.mean_multiplier
    assert expected == pytest.approx(rate * duration * mult)
    n = len(gen.generate())
    # Poisson-dominated spread; 5 sigma keeps the test seed-robust.
    assert abs(n - expected) < 5.0 * np.sqrt(expected)


def test_expected_sessions_respects_cap():
    gen = _gen(rate=50.0, duration=2.0, max_sessions=10)
    assert gen.expected_sessions() == 10.0


def test_multiplier_array_matches_scalar():
    phases = np.linspace(0.0, 1.0, 33)
    for profile in (
        RateProfile("constant"),
        RateProfile("diurnal", floor=0.15),
        RateProfile("ramp", floor=0.3),
    ):
        scalar = np.array([profile.multiplier(p) for p in phases])
        assert np.allclose(profile.multiplier_array(phases), scalar)


def test_uncapped_overflow_rate_is_rejected():
    with pytest.raises(ValidationError, match="generation budget"):
        _gen(rate=1e6, duration=10.0, max_sessions=None)
    # The same rate with a cap is fine: candidates are bounded.
    _gen(rate=1e6, duration=10.0, max_sessions=100)


def test_validation_errors():
    with pytest.raises(ValidationError):
        TrafficGenerator(mix="rush-hour")
    with pytest.raises(ValidationError):
        TrafficGenerator(mix=())
    with pytest.raises(ValidationError):
        _gen(rate=0.0)
    with pytest.raises(ValidationError):
        _gen(duration=-1.0)
    with pytest.raises(ValidationError):
        _gen(detail=0.0)
    with pytest.raises(ValidationError):
        _gen(max_sessions=0)
    with pytest.raises(ValidationError):
        _gen(seed=-1)
    with pytest.raises(ValidationError):
        RateProfile("tidal")
    with pytest.raises(ValidationError):
        RateProfile("diurnal", floor=0.0)
    with pytest.raises(ValidationError):
        SessionArchetype("x", "no_such_scene")
    with pytest.raises(ValidationError):
        SessionArchetype("x", "bicycle", frames=(4, 2))
    with pytest.raises(ValidationError):
        SessionArchetype("x", "bicycle", weight=0.0)
    with pytest.raises(ValidationError):
        SessionArchetype("x", "bicycle", target_fps=(0.0,))
