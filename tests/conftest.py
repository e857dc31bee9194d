"""Hypothesis profiles. ``tier1`` (300 examples) is the default; a
property that sets no ``max_examples`` of its own takes the profile's, so
``pytest --hypothesis-profile=long`` runs it with 2000 examples."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=300)
settings.register_profile("long", max_examples=2000)
if settings.get_current_profile_name() == "default":  # no profile was asked for
    settings.load_profile("tier1")
