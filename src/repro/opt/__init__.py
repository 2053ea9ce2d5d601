"""Query optimizations from Section 5: aggregate selections (+ the
arg-min advertising view).  Cost-based join ordering (5.3) is the join
planner's, :mod:`repro.engine.rules`; result caching and message
sharing live in the runtime transport/config layer."""

from repro.opt import aggsel

__all__ = ["aggsel"]
