"""Self-contained mock deployment used as audit ground truth.

Every service here is intentionally small and intentionally honest: the
secure profile implements each control correctly, and each named toggle
disables exactly one control so that exactly one check flips to Fail.
"""

_HARNESS_NAMES = {"Testbed", "start_testbed"}
_TOGGLE_NAMES = {"PROFILES", "TOGGLES", "toggles_for_profile"}

__all__ = sorted(_HARNESS_NAMES | _TOGGLE_NAMES)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    if name in _TOGGLE_NAMES:
        from . import toggles

        return getattr(toggles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
