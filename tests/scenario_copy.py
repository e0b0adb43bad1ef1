"""A ScenarioParams copy for the tests that is validated in full."""

from interferobounds.scenario import ScenarioParams


def validated_copy(p, **changes):
    """p with `changes` applied, built through ScenarioParams itself, so
    every field is checked again (replace_swept checks only the new value)."""
    return ScenarioParams(**{**vars(p), **changes})
