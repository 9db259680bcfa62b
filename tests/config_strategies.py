"""Hypothesis strategy for random valid configs, with or without the relay."""

import dataclasses
import math

from hypothesis import assume
from hypothesis import strategies as st

from noma_perf.analytic import decode_depth, served_users
from noma_perf.configs import ScenarioConfig

POSITIVE = st.floats(0.2, 5.0)
RATE = st.floats(0.05, 2.0)


@st.composite
def configs(draw, mu=st.integers(1, 4)):
    """A random valid :class:`ScenarioConfig`: two users and a relay, or
    one to four single-slot users."""
    relay = draw(st.booleans())
    m = 2 if relay else draw(st.integers(1, 4))
    ratio = draw(st.floats(0.1, 0.8))
    weights = [ratio**k for k in range(m)]
    pool = m + draw(st.integers(0, 4 if relay else 2))
    ranks = sorted(draw(st.lists(st.integers(1, pool), min_size=m, max_size=m, unique=True)))
    relay_fields = {}
    if relay:
        relay_fields = dict(relay_gain=draw(st.floats(0.3, 2.0)),
                            omega_sr=draw(POSITIVE), omega_rd=draw(POSITIVE))
    return ScenarioConfig(
        power=tuple(w / sum(weights) for w in weights),
        rates=tuple(draw(RATE) for _ in range(m)),
        omega=tuple(draw(POSITIVE) for _ in range(m)),
        mu=draw(mu), ranks=tuple(ranks), pool=pool, **relay_fields,
    )


@st.composite
def blocked_users(draw, mu=st.integers(1, 4)):
    """(cfg, user): a random config whose SIC stage s, somewhere up to the
    user's decode depth, has a threshold 1.01 to 4 times power[s] over the
    power of the messages after it, so that no gain can clear it."""
    cfg = draw(configs(mu))
    assume(cfg.n_users > 1)  # the last stage has no residual, so always headroom
    stage = draw(st.integers(0, cfg.n_users - 2))
    gamma = cfg.power[stage] / math.fsum(cfg.power[stage + 1:]) * draw(st.floats(1.01, 4.0))
    rates = list(cfg.rates)
    rates[stage] = math.log2(1.0 + gamma) / (2 if cfg.has_relay else 1)
    cfg = dataclasses.replace(cfg, rates=tuple(rates))
    users = [u for u in served_users(cfg) if decode_depth(cfg, u) > stage]
    return cfg, draw(st.sampled_from(users))
