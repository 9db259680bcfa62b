"""The per-user views that ``perfbench/tracing.py:TRACED`` pins.

Each view is a second spelling of a one-body function: ``user_outage``,
``throughput`` over ``point_outages``, ``stage_cuts``,
``estimate_outage``, ``draw_block``, ``user_failures`` and
``stage_failures``.  No production path calls a view and no ``__all__``
exports one (``test_exports``); they stay importable from their modules
because the benchmark's tracer wraps them by name.  These tests keep
each view's own contract covered, and pin every view to its one-body
spelling value for value.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_exports import PARKED

from noma_perf import analytic, montecarlo
from noma_perf.analytic import (
    decode_depth,
    point_links,
    point_outages,
    relay_outage,
    served_users,
    stage_cuts,
    throughput,
    user_outage,
)
from noma_perf.configs import coop_preset, direct_preset, with_mu
from noma_perf.fading import FadingParams, OrderedIndex, ordered_cdf
from noma_perf.montecarlo import (
    TrialBatch,
    branch_gains,
    draw_block,
    estimate_outage,
    stage_failures,
    user_failures,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


# =====================================================================
# Each view's own contract
# =====================================================================

def test_earlier_names_are_the_same_objects():
    assert analytic.coop_cuts is analytic.direct_cuts is stage_cuts
    assert analytic.throughput_coop is analytic.throughput_direct
    assert montecarlo.draw_coop_block is draw_block
    assert montecarlo.coop_events_from_sinr is user_failures


def test_product_of_parts():
    cfg = coop_preset()
    for rho_db in (0.0, 10.0, 25.0):
        rho = db_to_linear(rho_db)
        d, r = analytic.far_outage_parts(cfg, rho)
        assert_allclose(analytic.outage_far_exact(cfg, rho), d * r, rtol=1e-15)
        d, r = analytic.near_outage_parts(cfg, rho)
        assert_allclose(analytic.outage_near_exact(cfg, rho), d * r, rtol=1e-15)


def test_direct_part_is_ordered_cdf_at_cut():
    cfg = with_mu(coop_preset(), 2)
    rho = db_to_linear(15.0)
    far_cut = stage_cuts(cfg, rho)[0]
    d, _ = analytic.far_outage_parts(cfg, rho)
    ref = ordered_cdf(
        FadingParams(cfg.mu, cfg.omega[0]),
        OrderedIndex(cfg.ranks[0], cfg.pool),
        far_cut,
    )
    assert_allclose(d, ref, rtol=1e-15)


def test_rejects_bad_user():
    cfg = direct_preset()
    with pytest.raises(ValueError):
        analytic.outage_direct_exact(cfg, 10.0, 0)
    with pytest.raises(ValueError):
        analytic.outage_direct_exact(cfg, 10.0, 4)


def test_far_near_wrappers_share_draws():
    cfg = coop_preset()
    rho = db_to_linear(10.0)
    batch = TrialBatch(50_000, seed=3)
    far, near = montecarlo.estimate_outage_coop(cfg, rho, batch)
    assert estimate_outage([cfg], [rho], batch) == [[{"far": far, "near": near}]]


@pytest.mark.parametrize("user", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_direct_user_follows_served_user_contract(user):
    # as for analytic.user_outage, a served user matches in type and value
    cfg = direct_preset()
    with pytest.raises(ValueError):
        montecarlo.estimate_outage_direct(cfg, 10.0, user, TrialBatch(10, seed=0))
    with pytest.raises(ValueError):
        montecarlo.direct_events_from_sinr(np.ones(4), cfg, 10.0, user)


def test_rejects_bad_rho_and_user(monkeypatch):
    with pytest.raises(ValueError):
        montecarlo.estimate_outage_coop(coop_preset(), 0.0, TrialBatch(10, seed=0))

    def no_draw(*args):
        raise AssertionError("drew gains for an unserved user")

    # the user is rejected before any draw
    monkeypatch.setattr(montecarlo, "draw_block", no_draw)
    with pytest.raises(ValueError):
        montecarlo.estimate_outage_direct(direct_preset(), 10.0, 5, TrialBatch(10, seed=0))


# =====================================================================
# Every view returns exactly its one-body spelling
# =====================================================================

BATCH = TrialBatch(2000, seed=1)


def exact_throughput(cfg, rho):
    return throughput(cfg, [p for p, _ in point_outages(cfg, rho)])


def link_parts(cfg, rho, user):
    params, idx, cut = point_links(cfg, rho)[decode_depth(cfg, user) - 1]
    return ordered_cdf(params, idx, cut), relay_outage(cfg, cut)


def fresh_draw(cfg):
    return branch_gains(draw_block([cfg], np.random.default_rng(7), BATCH.trials), cfg)


def user_gain(cfg, user):
    return fresh_draw(cfg)[decode_depth(cfg, user) - 1][0]


#: view -> (view value, one-body value) at (cfg, rho, user); a view whose
#: name says "direct" runs on the single-slot preset for each served
#: user, every other one on the relay preset
VIEWS = {
    "coop_cuts": lambda cfg, rho, user: (
        analytic.coop_cuts(cfg, rho), stage_cuts(cfg, rho)),
    "direct_cuts": lambda cfg, rho, user: (
        analytic.direct_cuts(cfg, rho), stage_cuts(cfg, rho)),
    "far_outage_parts": lambda cfg, rho, user: (
        analytic.far_outage_parts(cfg, rho), link_parts(cfg, rho, "far")),
    "near_outage_parts": lambda cfg, rho, user: (
        analytic.near_outage_parts(cfg, rho), link_parts(cfg, rho, "near")),
    "outage_far_exact": lambda cfg, rho, user: (
        analytic.outage_far_exact(cfg, rho), user_outage(cfg, rho, "far")[0]),
    "outage_near_exact": lambda cfg, rho, user: (
        analytic.outage_near_exact(cfg, rho), user_outage(cfg, rho, "near")[0]),
    "outage_direct_exact": lambda cfg, rho, user: (
        analytic.outage_direct_exact(cfg, rho, user), user_outage(cfg, rho, user)[0]),
    "outage_far_asymptotic": lambda cfg, rho, user: (
        analytic.outage_far_asymptotic(cfg, rho), user_outage(cfg, rho, "far")[1]),
    "outage_near_asymptotic": lambda cfg, rho, user: (
        analytic.outage_near_asymptotic(cfg, rho), user_outage(cfg, rho, "near")[1]),
    "outage_direct_asymptotic": lambda cfg, rho, user: (
        analytic.outage_direct_asymptotic(cfg, rho, user), user_outage(cfg, rho, user)[1]),
    "throughput_coop": lambda cfg, rho, user: (
        analytic.throughput_coop(cfg, rho), exact_throughput(cfg, rho)),
    "throughput_direct": lambda cfg, rho, user: (
        analytic.throughput_direct(cfg, rho), exact_throughput(cfg, rho)),
    "estimate_outage_coop": lambda cfg, rho, user: (
        montecarlo.estimate_outage_coop(cfg, rho, BATCH),
        tuple(estimate_outage([cfg], [rho], BATCH)[0][0].values())),
    "estimate_outage_direct": lambda cfg, rho, user: (
        montecarlo.estimate_outage_direct(cfg, rho, user, BATCH),
        estimate_outage([cfg], [rho], BATCH)[0][0][user]),
    "draw_coop_block": lambda cfg, rho, user: (
        montecarlo.draw_coop_block([cfg], np.random.default_rng(7), BATCH.trials),
        draw_block([cfg], np.random.default_rng(7), BATCH.trials)),
    "coop_events_from_sinr": lambda cfg, rho, user: (
        montecarlo.coop_events_from_sinr(fresh_draw(cfg), cfg, rho),
        user_failures(fresh_draw(cfg), cfg, rho)),
    "direct_events_from_sinr": lambda cfg, rho, user: (
        montecarlo.direct_events_from_sinr(user_gain(cfg, user), cfg, rho, user),
        stage_failures(user_gain(cfg, user), cfg, rho, decode_depth(cfg, user))),
}


def same(a, b):
    """``a == b``, element by element through tuples, lists and arrays."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.all(a == b))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def test_table_covers_every_parked_view():
    assert sorted(VIEWS) == sorted(name for _, name in PARKED)


@pytest.mark.parametrize("name", sorted(VIEWS))
@pytest.mark.parametrize("mu", [1, 2])
def test_view_equals_its_one_body_spelling(name, mu):
    cfg = with_mu(direct_preset() if "direct" in name else coop_preset(), mu)
    users = served_users(cfg) if "direct" in name else (None,)
    for snr_db in (0.0, 20.0, 40.0):
        rho = db_to_linear(snr_db)
        for user in users:
            view, one_body = VIEWS[name](cfg, rho, user)
            assert same(view, one_body), (name, mu, snr_db, user)
