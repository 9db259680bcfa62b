"""The earlier per-user names that ``perfbench/tracing.py:TRACED`` pins.

The tracer wraps functions by object identity, so each pinned name is
bound, in its module, to the production function whose span it names:
``stage_cuts``, ``link_outage``, ``throughput``, ``estimate_outage``,
``draw_block`` and ``user_failures``.  No ``__all__`` exports a pinned
name (``test_exports``).  These tests pin every name to the function it
must be bound to, check that a call through it returns what the
production path reads (``point_outages``, ``user_outage``, a fresh
``estimate_outage`` call), and keep the contracts that the earlier
per-user views carried on the production functions.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_exports import PARKED

from noma_perf import analytic, montecarlo
from noma_perf.analytic import (
    decode_depth,
    link_outage,
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
    gain_cuts,
    user_failures,
)


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


def user_link(cfg, rho, user):
    """The user's link on the one-element grid [rho]."""
    return point_links(cfg, [rho])[decode_depth(cfg, user) - 1]


# =====================================================================
# Each name's binding and the contract it carried
# =====================================================================

def test_earlier_names_are_the_same_objects():
    assert analytic.coop_cuts is analytic.direct_cuts is stage_cuts
    assert (analytic.far_outage_parts is analytic.near_outage_parts
            is analytic.outage_far_exact is analytic.outage_near_exact
            is analytic.outage_direct_exact is analytic.outage_far_asymptotic
            is analytic.outage_near_asymptotic is analytic.outage_direct_asymptotic
            is link_outage)
    assert analytic.throughput_coop is analytic.throughput_direct is throughput
    assert montecarlo.draw_coop_block is draw_block
    assert montecarlo.coop_events_from_sinr is montecarlo.direct_events_from_sinr is user_failures
    assert montecarlo.estimate_outage_coop is montecarlo.estimate_outage_direct is estimate_outage


def test_product_of_parts():
    # the ordered CDF of the direct gain at the decode cut times the
    # relay factor at the same cut, through the pinned part names
    cfg = coop_preset()
    for rho_db in (0.0, 10.0, 25.0):
        rho = db_to_linear(rho_db)
        for user, parts in (("far", analytic.far_outage_parts),
                            ("near", analytic.near_outage_parts)):
            params, idx, cut = link = user_link(cfg, rho, user)
            assert parts(cfg, link)[0] == ordered_cdf(params, idx, cut) * relay_outage(cfg, cut[0])


def test_direct_part_is_ordered_cdf_at_cut():
    cfg = with_mu(coop_preset(), 2)
    rho = db_to_linear(15.0)
    far_cut = stage_cuts(cfg, [rho])[0]
    link = user_link(cfg, rho, "far")
    assert link[2] == far_cut
    ref = ordered_cdf(
        FadingParams(cfg.mu, cfg.omega[0]),
        OrderedIndex(cfg.ranks[0], cfg.pool),
        far_cut,
    )
    assert_allclose(analytic.far_outage_parts(cfg, link)[0],
                    ref * relay_outage(cfg, far_cut[0]), rtol=1e-15)


def test_rejects_bad_user():
    cfg = direct_preset()
    with pytest.raises(ValueError):
        user_outage(cfg, 10.0, 0)
    with pytest.raises(ValueError):
        user_outage(cfg, 10.0, 4)


def test_far_near_wrappers_share_draws():
    # one call through the pinned coop name estimates both users from one
    # draw, as the production call with the same seed does
    cfg = coop_preset()
    rho = db_to_linear(10.0)
    batch = TrialBatch(50_000, seed=3)
    (counts,) = montecarlo.estimate_outage_coop([cfg], [rho], batch)
    assert counts.shape == (2, 1)  # far, near
    assert same(estimate_outage([cfg], [rho], batch), [counts])


@pytest.mark.parametrize("user", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_direct_user_follows_served_user_contract(user):
    # as for analytic.user_outage, a served user matches in type and value;
    # the pinned direct estimator counts one row per served user
    cfg = direct_preset()
    with pytest.raises(ValueError):
        user_outage(cfg, 10.0, user)
    with pytest.raises(ValueError):
        decode_depth(cfg, user)
    (counts,) = montecarlo.estimate_outage_direct([cfg], [10.0], TrialBatch(10, seed=0))
    assert counts.shape == (len(served_users(cfg)), 1)


def test_rejects_bad_rho_and_user(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew gains for a rejected call")

    # rho is rejected before any draw
    monkeypatch.setattr(montecarlo, "draw_block", no_draw)
    with pytest.raises(ValueError):
        montecarlo.estimate_outage_coop([coop_preset()], [0.0], TrialBatch(10, seed=0))
    # a draw of more users than the config serves is rejected by the replay
    with pytest.raises(ValueError):
        montecarlo.direct_events_from_sinr([(np.ones(4),)] * 4, gain_cuts(direct_preset(), 10.0))


# =====================================================================
# Every pinned name returns what the production path reads
# =====================================================================

BATCH = TrialBatch(2000, seed=1)


def fresh_draw(cfg):
    return branch_gains(draw_block([cfg], np.random.default_rng(7), BATCH.trials), cfg)


def outage_form(pinned, form, user=None):
    """View of one outage form (0 exact, 1 high-SNR) through ``pinned``:
    the relay names fix their user, the direct names take it from the
    caller."""
    def view(cfg, rho, caller_user):
        served = caller_user if user is None else user
        return (pinned(cfg, user_link(cfg, rho, served))[form].item(),
                user_outage(cfg, rho, served)[form])
    return view


def parts(pinned, user):
    def view(cfg, rho, _):
        return (pinned(cfg, user_link(cfg, rho, user)),
                point_outages(cfg, [rho])[decode_depth(cfg, user) - 1])
    return view


#: pinned name -> (module, production function, view) where view(cfg,
#: rho, user) returns (value through the pinned name, value the
#: production path reads); a name that says "direct" runs on the
#: single-slot preset for each served user, every other one on the
#: relay preset
VIEWS = {
    "coop_cuts": (analytic, stage_cuts, lambda cfg, rho, user: (
        analytic.coop_cuts(cfg, [rho]), tuple(stage_cuts(cfg, [rho])))),
    "direct_cuts": (analytic, stage_cuts, lambda cfg, rho, user: (
        analytic.direct_cuts(cfg, [rho]), tuple(stage_cuts(cfg, [rho])))),
    "far_outage_parts": (analytic, link_outage, parts(analytic.far_outage_parts, "far")),
    "near_outage_parts": (analytic, link_outage, parts(analytic.near_outage_parts, "near")),
    "throughput_coop": (analytic, throughput, lambda cfg, rho, user: (
        analytic.throughput_coop(cfg, [p.item() for p, _ in point_outages(cfg, [rho])]),
        throughput(cfg, [user_outage(cfg, rho, u)[0] for u in served_users(cfg)]))),
    "throughput_direct": (analytic, throughput, lambda cfg, rho, user: (
        analytic.throughput_direct(cfg, [p.item() for p, _ in point_outages(cfg, [rho])]),
        throughput(cfg, [user_outage(cfg, rho, u)[0] for u in served_users(cfg)]))),
    "estimate_outage_coop": (montecarlo, estimate_outage, lambda cfg, rho, user: (
        montecarlo.estimate_outage_coop([cfg], [rho], BATCH),
        estimate_outage([cfg], [rho], BATCH))),
    "estimate_outage_direct": (montecarlo, estimate_outage, lambda cfg, rho, user: (
        montecarlo.estimate_outage_direct([cfg], [rho], BATCH)[0][decode_depth(cfg, user) - 1],
        estimate_outage([cfg], [rho], BATCH)[0][decode_depth(cfg, user) - 1])),
    "draw_coop_block": (montecarlo, draw_block, lambda cfg, rho, user: (
        montecarlo.draw_coop_block([cfg], np.random.default_rng(7), BATCH.trials),
        draw_block([cfg], np.random.default_rng(7), BATCH.trials))),
    "coop_events_from_sinr": (montecarlo, user_failures, lambda cfg, rho, user: (
        montecarlo.coop_events_from_sinr(fresh_draw(cfg), gain_cuts(cfg, rho)),
        user_failures(fresh_draw(cfg), gain_cuts(cfg, rho)))),
    "direct_events_from_sinr": (montecarlo, user_failures, lambda cfg, rho, user: (
        montecarlo.direct_events_from_sinr(fresh_draw(cfg), gain_cuts(cfg, rho))[
            decode_depth(cfg, user) - 1],
        user_failures(fresh_draw(cfg)[:decode_depth(cfg, user)], gain_cuts(cfg, rho))[-1])),
}
for _form, _kind in enumerate(("exact", "asymptotic")):
    for _user in ("far", "near", None):
        _name = f"outage_{_user or 'direct'}_{_kind}"
        VIEWS[_name] = (analytic, link_outage, outage_form(getattr(analytic, _name), _form, _user))


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
    assert sorted((module.__name__.rsplit(".", 1)[1], name)
                  for name, (module, _, _) in VIEWS.items()) == sorted(PARKED)


@pytest.mark.parametrize("name", sorted(VIEWS))
@pytest.mark.parametrize("mu", [1, 2])
def test_view_equals_its_one_body_spelling(name, mu):
    module, production, view = VIEWS[name]
    assert getattr(module, name) is production
    cfg = with_mu(direct_preset() if "direct" in name else coop_preset(), mu)
    users = served_users(cfg) if "direct" in name else (None,)
    for snr_db in (0.0, 20.0, 40.0):
        rho = db_to_linear(snr_db)
        for user in users:
            pinned, one_body = view(cfg, rho, user)
            assert same(pinned, one_body), (name, mu, snr_db, user)
