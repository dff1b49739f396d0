"""Property test of the expression boundary.

Random expressions from the DSL grammar over the names t, x, v, u and y
(y is a parameter, never bound here) go to the three constructions that
take user expressions.  Each must either succeed or raise
UnboundNameError, and it raises exactly when the expression uses a name
outside the variables that construction allows.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oscdeform.apps import rcd_from_fg  # noqa: E402
from oscdeform.deform import (  # noqa: E402
    DeformedOscillator,
    generate_ode_time_varying,
)
from oscdeform.errors import UnboundNameError  # noqa: E402

NAMES = ("t", "x", "v", "u", "y")
FUNCTIONS = ("sin", "cos", "tan", "cot", "exp", "ln", "sqrt", "abs",
             "asinh", "sinh", "cosh", "tanh")

# (source text, names it uses); small numbers keep constant folding in
# differentiate clear of float overflow
_leaves = st.one_of(
    st.sampled_from(NAMES).map(lambda n: (n, {n})),
    st.sampled_from(("0", "1", "2", "0.5", "3")).map(lambda c: (c, set())),
)


def _extend(inner):
    def binary(op):
        return st.tuples(inner, inner).map(
            lambda ab: ("(%s)%s(%s)" % (ab[0][0], op, ab[1][0]),
                        ab[0][1] | ab[1][1]))

    return st.one_of(
        *[binary(op) for op in "+-*/^"],
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(
            lambda fa: ("%s(%s)" % (fa[0], fa[1][0]), fa[1][1])),
        inner.map(lambda a: ("-(%s)" % a[0], a[1])),
    )


EXPRESSIONS = st.recursive(_leaves, _extend, max_leaves=8)

CONSTRUCTIONS = [
    ({"t", "x", "v"}, lambda e: DeformedOscillator(e, "0", 1.0)),
    ({"t", "x", "v"}, lambda e: DeformedOscillator("0", e, 1.0)),
    ({"t", "x", "v"}, lambda e: generate_ode_time_varying(e, "0", "1")),
    ({"t"}, lambda e: generate_ode_time_varying("0", "0", e)),
    ({"u"}, lambda e: rcd_from_fg(e, "0", 1.0)),
    ({"u"}, lambda e: rcd_from_fg("0", e, 1.0)),
]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(EXPRESSIONS)
def test_unbound_name_exactly_when_a_name_is_outside_the_allowed(expr):
    text, used = expr
    for allowed, build in CONSTRUCTIONS:
        outside = used - allowed
        if outside:
            with pytest.raises(UnboundNameError) as info:
                build(text)
            assert info.value.name in outside
        else:
            build(text)
