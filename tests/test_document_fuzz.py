"""Mutated valid documents against both parsers.

Every mutation of a valid channel or solution document (a node replaced
by another type or a huge number, wrapped in or unwrapped from a list,
dropped or duplicated, the text truncated) either parses or is refused
with ``MalformedDocument`` or ``ShapeMismatch``; nothing else escapes.
The examples are derandomized, so every run tries the same documents.
"""

import copy
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenalign import channel, closed_form
from eigenalign.channel import NetworkDims, generate
from eigenalign.errors import MalformedDocument, ShapeMismatch

_NET = generate(NetworkDims(3, 2, 2), 1)
CHANNEL_DOC = json.loads(channel.serialize(generate(NetworkDims(3, 3, 2), 1)))
SOLUTION_DOC = json.loads(closed_form.solution_to_document(
    _NET, closed_form.solve_eigen_method(_NET), "eigen"))

#: Stands in for an integer of 5000 digits, past the 4300 Python reads
#: and writes: ``text`` puts the digits in its place.
LONG = "<5000-digit integer>"
HUGE = [10 ** 400, -10 ** 400, 2 ** 63, -2 ** 64, 1e308, -1e308, 5e-324,
        float("inf"), float("-inf"), float("nan"), LONG]
REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(HUGE),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    # fresh containers each draw: a later mutation may write into them
    st.builds(list), st.builds(dict), st.builds(lambda: [[0.0, 0.0]]))


def paths(node, prefix=()):
    """Every path into a JSON tree, the root (empty path) included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutate(doc, path, kind, value):
    """``doc`` with the node at ``path`` changed by ``kind``; the root can
    only be replaced or wrapped."""
    if not path:
        return value if kind == "replace" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if kind == "replace":
        parent[key] = value
    elif kind == "wrap":
        parent[key] = [node]
    elif kind == "unwrap" and isinstance(node, (list, dict)) and node:
        parent[key] = (node[0] if isinstance(node, list)
                       else next(iter(node.values())))
    elif kind == "drop":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(node))
    elif kind == "as_object" and isinstance(node, list):
        parent[key] = {str(i): x for i, x in enumerate(node)}
    return doc


@st.composite
def mutated(draw, valid):
    """Text of ``valid`` after one to three mutations, maybe truncated."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        every = list(paths(doc))
        path = every[draw(st.integers(0, len(every) - 1))]
        kind = draw(st.sampled_from(["replace", "wrap", "unwrap", "drop",
                                     "duplicate", "as_object"]))
        doc = mutate(doc, path, kind, draw(REPLACEMENTS))
    data = text(doc)
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data.encode("utf-8")


def text(doc):
    """``doc`` as JSON text, a 5000-digit integer in place of ``LONG``."""
    return json.dumps(doc, indent=1).replace(json.dumps(LONG),
                                             "1" + "0" * 4999)


FUZZ = settings(derandomize=True, max_examples=400, deadline=None)


@FUZZ
@given(mutated(CHANNEL_DOC))
@example(text(dict(CHANNEL_DOC, seed=LONG)).encode())
def test_channel_mutations_refused_typed(data):
    try:
        net = channel.deserialize(data)
    except (MalformedDocument, ShapeMismatch):
        return
    assert net.h.shape == (net.dims.k, net.dims.k, net.dims.n_r,
                           net.dims.n_t)
    assert np.isfinite(net.h).all()


@FUZZ
@given(mutated(SOLUTION_DOC))
@example(text(dict(SOLUTION_DOC, residual=LONG)).encode())
def test_solution_mutations_refused_typed(data):
    try:
        sol, dims, _ = closed_form.solution_from_document(data)
    except (MalformedDocument, ShapeMismatch):
        return
    assert sol.precoders.shape == (dims.k, dims.n_t)
    assert sol.combiners.shape == (dims.k, dims.n_r)
    assert np.isfinite(sol.precoders).all() and np.isfinite(sol.combiners).all()
