"""Query optimizations from Section 5: aggregate selections (+ the
arg-min advertising view) and cost-based join statistics; result caching and
message sharing live in the runtime transport/config layer."""

from repro.opt import aggsel, costbased

__all__ = ["aggsel", "costbased"]
