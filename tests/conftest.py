"""Shared test configuration: property tests draw the same examples every run."""

from hypothesis import settings

settings.register_profile("gebs", derandomize=True, deadline=None)
settings.load_profile("gebs")
