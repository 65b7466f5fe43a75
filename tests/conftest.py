"""Hypothesis profiles of the property tests.

``skeleton-fuzz`` is the larger, randomized run of
``tests/test_skeleton_properties.py``; CI's ``fuzz-certify`` job selects
it with pytest's option::

    PYTHONPATH=src python -m pytest tests/test_skeleton_properties.py \\
        --hypothesis-profile=skeleton-fuzz

Without the option no profile is loaded, and that module keeps its
derandomized 200 examples.
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the serving job's tests need no Hypothesis
    pass
else:
    settings.register_profile(
        "skeleton-fuzz",
        max_examples=2000,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
