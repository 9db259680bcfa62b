"""Hypothesis strategies for random valid configs of both deployments."""

import dataclasses
import math

from hypothesis import assume
from hypothesis import strategies as st

from noma_perf.analytic import decode_depth, served_users
from noma_perf.configs import CoopConfig, DirectConfig

POSITIVE = st.floats(0.2, 5.0)
RATE = st.floats(0.05, 2.0)


@st.composite
def coop_configs(draw, mu=st.integers(1, 4)):
    users = draw(st.integers(2, 6))
    near_rank = draw(st.integers(2, users))
    power_far = draw(st.floats(0.55, 0.95))
    return CoopConfig(
        users=users, far_rank=draw(st.integers(1, near_rank - 1)),
        near_rank=near_rank, power_far=power_far, power_near=1.0 - power_far,
        rate_far=draw(RATE), rate_near=draw(RATE),
        relay_gain=draw(st.floats(0.3, 2.0)), mu=draw(mu),
        omega_sd=draw(POSITIVE), omega_sr=draw(POSITIVE), omega_rd=draw(POSITIVE),
    )


@st.composite
def direct_configs(draw, mu=st.integers(1, 4)):
    m = draw(st.integers(1, 4))
    ratio = draw(st.floats(0.1, 0.8))
    weights = [ratio**k for k in range(m)]
    pool = m + draw(st.integers(0, 2))
    ranks = sorted(draw(st.lists(st.integers(1, pool), min_size=m, max_size=m, unique=True)))
    return DirectConfig(
        power=tuple(w / sum(weights) for w in weights),
        rates=tuple(draw(RATE) for _ in range(m)),
        omega=tuple(draw(POSITIVE) for _ in range(m)),
        mu=draw(mu), ranks=tuple(ranks), pool=pool,
    )


def configs(mu=st.integers(1, 4)):
    """A random valid :class:`CoopConfig` or :class:`DirectConfig`."""
    return st.one_of(coop_configs(mu), direct_configs(mu))


@st.composite
def blocked_users(draw, mu=st.integers(1, 4)):
    """(cfg, user): a random config whose SIC stage s, somewhere up to the
    user's decode depth, has a threshold 1.01 to 4 times power[s] over the
    power of the messages after it, so that no gain can clear it."""
    cfg = draw(configs(mu))
    if isinstance(cfg, CoopConfig):
        powers, slots = (cfg.power_far, cfg.power_near), 2
    else:
        powers, slots = cfg.power, 1
    assume(len(powers) > 1)  # the last stage has no residual, so always headroom
    stage = draw(st.integers(0, len(powers) - 2))
    gamma = powers[stage] / math.fsum(powers[stage + 1:]) * draw(st.floats(1.01, 4.0))
    rate = math.log2(1.0 + gamma) / slots
    if isinstance(cfg, CoopConfig):
        cfg = dataclasses.replace(cfg, **{("rate_far", "rate_near")[stage]: rate})
    else:
        rates = list(cfg.rates)
        rates[stage] = rate
        cfg = dataclasses.replace(cfg, rates=tuple(rates))
    users = [u for u in served_users(cfg) if decode_depth(cfg, u) > stage]
    return cfg, draw(st.sampled_from(users))
