"""Program rewrites: rule localization (Algorithm 2) and magic sets.
Join ordering is not a rewrite: every engine plans it per strand in
:mod:`repro.engine.rules`."""

from repro.planner import magic
from repro.planner.localization import is_canonical, localize, localize_rule
from repro.planner.magic import magic_rewrite

__all__ = [
    "localize",
    "localize_rule",
    "is_canonical",
    "magic",
    "magic_rewrite",
]
