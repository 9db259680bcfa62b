"""Shared test settings.

Hypothesis properties draw the same examples on every run and keep no
example database, so a tier-1 result repeats in any checkout; a case a
run once found is kept as an explicit ``@example`` on its property.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
