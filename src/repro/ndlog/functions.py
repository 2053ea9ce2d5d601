"""Builtin ``f_*`` functions available to NDlog programs.

The paper's programs use ``f_concatPath``; declarative routing / overlay
programs built on NDlog additionally need basic list manipulation, which we
provide in the same spirit ("a limited set of function calls ... including
boolean predicates, arithmetic computations and simple list manipulation",
Section 2).

Path vectors are Python tuples of node identifiers.  A link tuple used as a
term (``link(@S,@D,C)``) evaluates to a :class:`ConstructedTuple`; its node
sequence is its first two fields (source and destination addresses).

``f_concatPath(a, b)`` concatenates the node sequences of ``a`` and ``b``,
collapsing a shared junction node, so that all three usages in the paper
work with one definition:

* ``f_concatPath(link(s,d,c), nil)``       -> ``(s, d)``       (rule SP1)
* ``f_concatPath(link(s,z,c), (z,...,d))`` -> ``(s, z, ..., d)`` (rule SP2)
* ``f_concatPath((s,...,z), link(z,d,c))`` -> ``(s, ..., z, d)`` (rule SP2-SD)

**Inline templates.**  A builtin may declare, beside its definition,
what a call of a given argument shape computes as one Python expression
(:class:`Inline`; ``register(name, inline=[...])``).  The strand kernel
generator (:mod:`repro.engine.kernels`) expands such a call in place --
``<fast> if <builtin unchanged> and <test> else <the call>`` -- so the
hot shapes of ``f_member``, ``f_concatPath`` and ``f_first`` cost no
Python call per joined tuple.  The function stays the definition: the
fast arm runs only while the kernel's ``functions`` still hold the very
function object the template was declared on (one identity test per
firing) and the argument has the shape ``test`` names; every other
value -- link tuples held in a variable, scalars, the error messages --
goes through the call.  ``tests/test_kernels.py`` holds every template
to its function over all of those.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

from repro.errors import EvaluationError, SchemaError
from repro.ndlog.terms import ConstructedTuple, NIL

#: Global registry of builtin functions, name -> callable.
REGISTRY: Dict[str, Callable] = {}


class Inline(NamedTuple):
    """One inline template: what a call whose arguments match ``shapes``
    returns, as the Python expression ``fast``, whenever ``test`` holds.

    ``shapes`` has one entry per parameter: a name stands for an
    argument that is a variable or a constant; a pair of names for a
    tuple term (``link(S, D, ..)``) given its first two argument
    expressions -- its node sequence, so no :class:`ConstructedTuple`
    is built; :data:`NIL` for the constant ``nil``.  ``fast`` and
    ``test`` refer to the named arguments as ``{name}``; an empty
    ``test`` means the shape alone decides.
    """

    shapes: Tuple
    fast: str
    test: str = ""

    def expand(self, slots: Mapping[str, str], unchanged: str,
               call: str) -> str:
        """Source of one call site: ``slots`` maps each shape name to
        the source of its argument, ``unchanged`` is the source of the
        builtin-unchanged test and ``call`` the plain call."""
        fast, test = self.fast.format(**slots), self.test.format(**slots)
        when = f"{unchanged} and {test}" if test else unchanged
        return f"({fast} if {when} else {call})"


#: Inline templates by builtin name: the function object they were
#: declared on (what a kernel compares its resolved builtin against --
#: never whatever ``REGISTRY`` holds under the name later) and the
#: templates, first match wins.
INLINE: Dict[str, Tuple[Callable, Tuple[Inline, ...]]] = {}


def register(name: str, inline: Sequence[Inline] = ()):
    """Decorator registering a builtin under ``name`` (must start ``f_``),
    with its ``inline`` templates if it declares any."""
    if not name.startswith("f_"):
        raise SchemaError(f"builtin names must start with 'f_': {name!r}")

    def wrap(func: Callable) -> Callable:
        REGISTRY[name] = func
        if inline:
            INLINE[name] = (func, tuple(inline))
        return func

    return wrap


def node_sequence(value) -> Tuple:
    """The node sequence of a path-like value.

    * a path vector (tuple) is its own sequence;
    * a link tuple contributes ``(src, dst)``;
    * ``nil`` contributes the empty sequence;
    * a scalar contributes a singleton sequence.
    """
    if isinstance(value, ConstructedTuple):
        if len(value.values) < 2:
            raise EvaluationError(
                f"tuple term {value.pred!r} needs >=2 fields to act as a link"
            )
        return (value.values[0], value.values[1])
    if isinstance(value, tuple):
        return value
    return (value,)


_IS_LIST = "{P}.__class__ is tuple"


@register("f_concatPath", inline=[
    # The paper's three usages (module docstring), in order.
    Inline((("S", "D"), NIL), "({S}, {D})"),
    Inline((("S", "Z"), "P"),
           "(({S}, {Z}) + {P}[1:] if {P} and {Z} == {P}[0] "
           "else ({S}, {Z}) + {P})", _IS_LIST),
    Inline(("P", ("Z", "D")),
           "({P} + ({D},) if {P} and {P}[-1] == {Z} "
           "else {P} + ({Z}, {D}))", _IS_LIST),
])
def f_concat_path(first, second) -> Tuple:
    """Concatenate two path-like values, merging a shared junction node."""
    left = node_sequence(first)
    right = node_sequence(second)
    if left and right and left[-1] == right[0]:
        return left + right[1:]
    return left + right


@register("f_member", inline=[
    Inline(("P", "X"), "(1 if {X} in {P} else 0)", _IS_LIST),
])
def f_member(path, item) -> int:
    """1 if ``item`` occurs in ``path``, else 0 (P2 convention)."""
    if not isinstance(path, tuple):
        raise EvaluationError("f_member expects a list as first argument")
    return 1 if item in path else 0


@register("f_size")
def f_size(path) -> int:
    """Number of elements in a list."""
    if not isinstance(path, tuple):
        raise EvaluationError("f_size expects a list")
    return len(path)


@register("f_first", inline=[
    Inline(("P",), "{P}[0]", _IS_LIST + " and {P}"),
])
def f_first(path):
    """First element of a non-empty list."""
    if not isinstance(path, tuple) or not path:
        raise EvaluationError("f_first expects a non-empty list")
    return path[0]


@register("f_last")
def f_last(path):
    """Last element of a non-empty list."""
    if not isinstance(path, tuple) or not path:
        raise EvaluationError("f_last expects a non-empty list")
    return path[-1]


@register("f_init")
def f_init(item) -> Tuple:
    """Singleton list containing ``item``."""
    return (item,)


@register("f_append")
def f_append(path, item) -> Tuple:
    """List with ``item`` appended."""
    if not isinstance(path, tuple):
        raise EvaluationError("f_append expects a list")
    return path + (item,)


@register("f_prepend")
def f_prepend(item, path) -> Tuple:
    """List with ``item`` prepended."""
    if not isinstance(path, tuple):
        raise EvaluationError("f_prepend expects a list")
    return (item,) + path


@register("f_reverse")
def f_reverse(path) -> Tuple:
    """Reversed copy of a list."""
    if not isinstance(path, tuple):
        raise EvaluationError("f_reverse expects a list")
    return tuple(reversed(path))


@register("f_prevhop")
def f_prevhop(path, node):
    """The element immediately before ``node`` in ``path``.

    Used to route answer tuples back along the reverse of a discovered
    path (query-result caching, Section 5.2).
    """
    if not isinstance(path, tuple):
        raise EvaluationError("f_prevhop expects a list")
    try:
        index = path.index(node)
    except ValueError:
        raise EvaluationError(f"{node!r} not on path {path!r}") from None
    if index == 0:
        return node
    return path[index - 1]


@register("f_subpath")
def f_subpath(path, node) -> Tuple:
    """The suffix of ``path`` starting at ``node`` (inclusive).

    Subpaths of shortest paths are themselves shortest, so this is the
    value cached at intermediate nodes (Section 5.2).
    """
    if not isinstance(path, tuple):
        raise EvaluationError("f_subpath expects a list")
    try:
        index = path.index(node)
    except ValueError:
        raise EvaluationError(f"{node!r} not on path {path!r}") from None
    return path[index:]


@register("f_min")
def f_min(a, b):
    """Binary minimum."""
    return a if a <= b else b


@register("f_max")
def f_max(a, b):
    """Binary maximum."""
    return a if a >= b else b


def default_functions() -> Dict[str, Callable]:
    """A fresh copy of the builtin registry (callers may extend it)."""
    return dict(REGISTRY)


# Re-export for convenience in user programs.
__all__ = ["REGISTRY", "INLINE", "Inline", "register", "default_functions",
           "node_sequence", "NIL"]
