import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenalign import channel, closed_form, iterative
from eigenalign.errors import MalformedDocument, ShapeMismatch


class TestGenerate:
    def test_shapes_and_determinism(self):
        net = channel.generate(channel.NetworkDims(3, 2, 2), 42)
        assert net.h.shape == (3, 3, 2, 2)
        again = channel.generate(channel.NetworkDims(3, 2, 2), 42)
        assert np.array_equal(net.h, again.h)
        assert net == again

    def test_different_seeds_differ(self):
        a = channel.generate(channel.NetworkDims(3, 2, 2), 1)
        b = channel.generate(channel.NetworkDims(3, 2, 2), 2)
        assert not np.array_equal(a.h, b.h)

    def test_unit_variance(self):
        # 40 networks x 25 matrices x 100 entries = 1e5 samples
        total = 0.0
        count = 0
        for seed in range(40):
            net = channel.generate(channel.NetworkDims(5, 10, 10), seed)
            total += float(np.sum(np.abs(net.h) ** 2))
            count += net.h.size
        assert count == 100_000
        assert abs(total / count - 1.0) < 0.02

    def test_rectangular(self):
        net = channel.generate(channel.NetworkDims(2, 3, 2), 0)
        assert net.h.shape == (2, 2, 2, 3)

    def test_dims_validation(self):
        # one count gate per field, in field order: bool and non-integral
        # dims are refused where they are given, not written into a
        # document that deserialize refuses
        for dims, bad in (((1, 2, 2), 0), ((True, 2, 2), 0), ((2, 0, 2), 1),
                          ((3, 0, 0), 1), ((2, 1, -1), 2), ((2.5, 2, 2), 0),
                          ((3.0, 2, 2), 0), ((3, 2.0, 2.0), 1),
                          ((3, True, 2), 1), ((3, 2, 1.5), 2),
                          ((3, 2, np.float64(2.0)), 2), (("3", 2, 2), 0),
                          ((3, None, 2), 1), ((3, 2, 2j), 2)):
            name, least = (("k", 2), ("n_t", 1), ("n_r", 1))[bad]
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"{name} must be >= {least} and integral,"
                    f" got {dims[bad]!r}") + "$"):
                channel.NetworkDims(*dims)
        # numpy integers are kept as int, so the document round-trips
        dims = channel.NetworkDims(np.int64(3), np.uint8(2), np.int32(1))
        assert all(type(x) is int for x in (dims.k, dims.n_t, dims.n_r))
        net = channel.generate(dims, 0)
        assert channel.deserialize(channel.serialize(net)) == net


def _seed_sequence_rng(seed, key):
    """The stream numpy's own SeedSequence derives: the oracle of
    ``channel._streams``."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _reference_generate(dims, seed):
    """``generate`` written one SeedSequence stream per matrix."""
    h = np.empty((dims.k, dims.k, dims.n_r, dims.n_t), dtype=np.complex128)
    for i in range(dims.k):
        for j in range(dims.k):
            rng = _seed_sequence_rng(seed, (i, j))
            re = rng.standard_normal((dims.n_r, dims.n_t))
            im = rng.standard_normal((dims.n_r, dims.n_t))
            h[i, j] = np.sqrt(0.5) * (re + 1j * im)
    return h


def _reference_precoders(dims, seed):
    """``iterative._random_precoders`` written one SeedSequence stream and
    one QR per user."""
    out = np.zeros((dims.k, dims.n_t, 1), dtype=np.complex128)
    for i in range(dims.k):
        rng = _seed_sequence_rng(seed, (i,))
        z = (rng.standard_normal((dims.n_t, 1))
             + 1j * rng.standard_normal((dims.n_t, 1))) * np.sqrt(0.5)
        q, r = np.linalg.qr(z)
        signs = np.diagonal(r).copy()
        out[i] = q * (signs / np.abs(signs))[None, :]
    return out


# 4-word and 6-word seeds sit on both sides of the four words the pool
# absorbs before the key stage starts
_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 96, 2 ** 128 - 1,
          2 ** 128 + 5, 2 ** 160 + 1]


class TestStreams:
    # one key width per call, each entry one 32-bit word: the derivation
    # absorbs the words of all keys at once, one word position at a time
    KEYS = [[(0,), (7,), (2 ** 32 - 1,)],
            [(3, 5), (2 ** 32 - 1, 0), (0, 2 ** 32 - 1), (1, 1)],
            [(0, 0, 0), (1, 2 ** 32 - 1, 4), (9, 8, 7)]]
    ODD_SEEDS = [np.uint64(2 ** 63 + 1), True]

    @staticmethod
    def check(seeds, keys):
        rngs = channel._streams(seeds, np.array(keys, dtype=np.uint32))
        count = 0
        for seed, key, rng in zip(seeds, keys, rngs):
            ref = _seed_sequence_rng(seed, key)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.standard_normal(5),
                                  ref.standard_normal(5))
            count += 1
        assert count == len(keys) and next(rngs, None) is None

    @pytest.mark.parametrize("seed", _SEEDS + ODD_SEEDS)
    def test_matches_seed_sequence(self, seed):
        for keys in self.KEYS:
            self.check([seed] * len(keys), keys)

    def test_mixed_seeds_in_one_call(self):
        # every seed, of one to six words (two hash steps before the keys),
        # in one call, each on every key of a width, repeated and
        # interleaved
        seeds = _SEEDS + self.ODD_SEEDS
        for keys in self.KEYS:
            rows = [(seed, key) for key in keys for seed in seeds]
            rows += rows[::-3]
            self.check([seed for seed, _ in rows], [key for _, key in rows])

    def test_no_keys(self):
        # the streams come lazily: an empty derivation yields nothing
        assert list(channel._streams([], [])) == []
        assert list(channel._streams([], np.empty((0, 2), int))) == []

    def test_generators_made_one_at_a_time(self):
        # forty (5, 3, 3) networks are 1000 streams: live together their
        # Generators alone would trace some 0.8 MB
        dims = channel.NetworkDims(5, 3, 3)
        channel._grids(dims, range(40))
        tracemalloc.start()
        try:
            grids = channel._grids(dims, range(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 750_000
        assert grids[7].tobytes() == _reference_generate(dims, 7).tobytes()

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_generate_matches_reference(self, seed):
        for dims in (channel.NetworkDims(3, 2, 2), channel.NetworkDims(4, 3, 2),
                     channel.NetworkDims(2, 1, 5)):
            net = channel.generate(dims, seed)
            assert net.h.tobytes() == _reference_generate(dims, seed).tobytes()
            assert net.seed == seed

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_precoders_match_reference(self, seed):
        for dims in (channel.NetworkDims(3, 2, 2),
                     channel.NetworkDims(4, 3, 3),
                     channel.NetworkDims(3, 4, 2)):
            got, = iterative._random_precoders(dims.n_t, [dims.k], [seed])
            assert got.tobytes() == _reference_precoders(dims, seed).tobytes()

    @pytest.mark.parametrize("n_t, n_r", [(2, 2), (3, 3), (1, 4), (4, 2)])
    def test_batched_draws_match_reference(self, n_t, n_r):
        # every K from 2 to 6 and seeds of every word count: each K's
        # networks from one draw, every run's precoders from one draw
        ks = [2 + i % 5 for i in range(len(_SEEDS))]
        for k in range(2, 7):
            dims = channel.NetworkDims(k, n_t, n_r)
            grids = channel._grids(dims, _SEEDS)
            assert len(grids) == len(_SEEDS)
            for seed, h in zip(_SEEDS, grids):
                assert h.tobytes() == _reference_generate(dims, seed).tobytes()
        got = iterative._random_precoders(n_t, ks, _SEEDS)
        assert [x.shape for x in got] == [(k, n_t, 1) for k in ks]
        for k, seed, x in zip(ks, _SEEDS, got):
            ref = _reference_precoders(channel.NetworkDims(k, n_t, n_r), seed)
            assert x.tobytes() == ref.tobytes()

    def test_seed_contract(self):
        # the count gate, as IterativeConfig and the sweep seeds meet it: a
        # ValueError naming the seed, never a TypeError; bools are not
        # seeds 1 and 0
        dims = channel.NetworkDims(2, 1, 1)
        for seed in (-1, -(2 ** 160), 1.5, None, "3", np.float64(2.0), 2j,
                     True, False):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"seed must be >= 0 and integral, got {seed!r}") + "$"):
                channel.generate(dims, seed)
        assert channel.generate(dims, np.int64(9)) == channel.generate(dims, 9)

    @pytest.mark.parametrize("bad, error", [
        (-1, ValueError), (-(2 ** 160), ValueError), (1.0, TypeError),
        (2.5, TypeError), (None, TypeError), ("3", TypeError)])
    def test_batched_seed_contract(self, bad, error):
        # every distinct seed is checked when the streams are asked for,
        # before a single one is derived; a batch fails as a whole
        keys = np.zeros((4, 1), dtype=np.uint32)
        match = "^expected non-negative integer$" if error is ValueError else None
        with pytest.raises(error, match=match):
            channel._streams([2 ** 160 + 1, 3, bad, 3], keys)
        with pytest.raises(error, match=match):
            channel._grids(channel.NetworkDims(2, 1, 1), [0, 2 ** 64, bad])
        with pytest.raises(error, match=match):
            iterative._random_precoders(2, [3, 2], [1, bad])


def _oracle(net):
    """The channel document as ``json.dumps`` writes it, the reference the
    direct writer must match byte for byte."""
    doc = {
        "format": channel.CHANNEL_FORMAT,
        "k": net.dims.k,
        "nt": net.dims.n_t,
        "nr": net.dims.n_r,
        "seed": net.seed,
        "h": [[[[[float(v.real), float(v.imag)] for v in row]
                for row in net.h[i, j]] for j in range(net.dims.k)]
              for i in range(net.dims.k)],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def _network(entries, k, n_t, n_r, seed=None):
    x = np.resize(np.asarray(entries, dtype=np.float64), (k, k, n_r, n_t, 2))
    return channel.InterferenceNetwork(channel.NetworkDims(k, n_t, n_r),
                                       x.view(np.complex128)[..., 0], seed)


@st.composite
def _networks(draw):
    k, n_t, n_r = (draw(st.integers(lo, hi)) for lo, hi in ((2, 4), (1, 3), (1, 3)))
    x = draw(hnp.arrays(np.float64, (k, k, n_r, n_t, 2),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    return _network(x, k, n_t, n_r, draw(st.none() | st.integers()))


class TestSerialization:
    @pytest.mark.parametrize("net", [
        channel.generate(channel.NetworkDims(3, 2, 2), 42),
        channel.generate(channel.NetworkDims(2, 3, 1), 5),
        channel.generate(channel.NetworkDims(4, 1, 3), 2 ** 70),
        _network([-0.0, 5e-324, 1e308, -1e308, 1.0, 0.0, -5e-324], 3, 2, 3),
        _network([1e308, -0.0, 1.0], 2, 1, 1, seed=-1),
    ], ids=["square", "rectangular", "tall", "special", "special-1x1"])
    def test_bytes_match_json_dumps(self, net):
        assert channel.serialize(net) == _oracle(net)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_networks())
    def test_bytes_and_round_trip_property(self, net):
        data = channel.serialize(net)
        assert data == _oracle(net)
        back = channel.deserialize(data)
        assert (back.dims, back.seed) == (net.dims, net.seed)
        assert back.h.dtype == np.complex128
        assert np.array_equal(back.h, net.h)
        assert back.h.tobytes() == net.h.tobytes()
        assert channel.serialize(back) == data

    def test_round_trip_exact(self):
        net = channel.generate(channel.NetworkDims(3, 2, 2), 42)
        back = channel.deserialize(channel.serialize(net))
        assert back == net

    def test_round_trip_rectangular(self):
        net = channel.generate(channel.NetworkDims(2, 3, 1), 5)
        assert channel.deserialize(channel.serialize(net)) == net

    def test_serialize_deterministic(self):
        net = channel.generate(channel.NetworkDims(3, 2, 2), 7)
        assert channel.serialize(net) == channel.serialize(net)

    def test_minimal_handwritten_document(self):
        doc = {
            "format": 1, "k": 2, "nt": 1, "nr": 1, "seed": None,
            "h": [[[[[1.0, 0.0]]], [[[0.0, 2.0]]]],
                  [[[[3.0, -1.0]]], [[[0.5, 0.0]]]]],
        }
        net = channel.deserialize(json.dumps(doc))
        assert net.dims == channel.NetworkDims(2, 1, 1)
        assert net.h[0, 0, 0, 0] == 1.0
        assert net.h[0, 1, 0, 0] == 2.0j
        assert net.h[1, 0, 0, 0] == 3.0 - 1.0j
        assert net.h[1, 1, 0, 0] == 0.5

    def test_wrong_matrix_shape(self):
        net = channel.generate(channel.NetworkDims(2, 2, 2), 0)
        doc = json.loads(channel.serialize(net))
        doc["h"][0][1] = [[[1.0, 0.0]] * 3] * 2   # 2x3 under nt=nr=2
        with pytest.raises(ShapeMismatch, match="^" + re.escape(
                "h[0][1][0] has length 3, expected 2") + "$"):
            channel.deserialize(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(MalformedDocument):
            channel.deserialize(b"{not json")
        data = channel.serialize(channel.generate(channel.NetworkDims(2, 1, 1), 0))
        with pytest.raises(MalformedDocument, match="UTF-8"):
            channel.deserialize(data.replace(b'"seed"', b'"se\xffed"'))
        with pytest.raises(MalformedDocument, match="nested"):
            channel.deserialize("[" * 100000)

    def test_missing_field(self):
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "n_r must be >= 1 and integral, got None (at k/nt/nr)") + "$"):
            channel.deserialize(json.dumps({"format": 1, "k": 2, "nt": 2}))

    @pytest.mark.parametrize("field", ["k", "seed"])
    def test_integer_past_the_digit_limit(self, field):
        # Python refuses to read an integer of more than 4300 digits
        net = channel.generate(channel.NetworkDims(2, 1, 1), 0)
        data = channel.serialize(net).replace(
            f'"{field}": '.encode(), f'"{field}": 1{"0" * 5000}'.encode(), 1)
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "integer with too many digits (at document root)") + "$"):
            channel.deserialize(data)

    def test_bad_format_version(self):
        with pytest.raises(MalformedDocument, match="format"):
            channel.deserialize(json.dumps({"format": 99, "k": 2, "nt": 1,
                                            "nr": 1, "h": []}))

    def test_bad_entry(self):
        doc = {
            "format": 1, "k": 2, "nt": 1, "nr": 1, "seed": 0,
            "h": [[[[[1.0, 0.0]]], [[["x", 0.0]]]],
                  [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]],
        }
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "expected a finite number (at h[0][1][0][0][0])") + "$"):
            channel.deserialize(json.dumps(doc))

    def test_wrong_grid_size(self):
        doc = {"format": 1, "k": 3, "nt": 1, "nr": 1, "seed": 0,
               "h": [[[[1.0, 0.0]]]]}
        with pytest.raises(ShapeMismatch, match="^" + re.escape(
                "h has length 1, expected 3") + "$"):
            channel.deserialize(json.dumps(doc))


#: Small documents whose every node the cases below break in turn; the
#: network is not square, so a swapped n_t and n_r would show.
_DIMS = channel.NetworkDims(2, 3, 2)
_DOCS = {
    "channel": (channel.deserialize,
                channel.serialize(channel.generate(_DIMS, 0))),
    "solution": (closed_form.solution_from_document,
                 closed_form.solution_to_document(
                     channel.generate(_DIMS, 0), closed_form.AlignmentSolution(
                         np.full((2, 3), 1 + 0.5j), np.full((2, 2), 1 - 0.25j),
                         1 + 2j), "eigen")),
}
#: What each number in turn is replaced with: np.array alone would read
#: the text, the bool and null as 1.5, 1.0 and nan.
_BAD = {"true": True, "text": "1.5", "null": None, "nan": float("nan"),
        "huge": 10 ** 400}


def _nodes(node, path=()):
    """``(path, node)`` of ``node`` and of every node below it."""
    yield path, node
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _where(path):
    """The location the readers name for ``path``: users[1].v[0][1]."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path)[1:]


def _edit(path, value=None, drop=False):
    """Set the node at ``path`` to ``value``, or drop its last item."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        if drop:
            doc[path[-1]].pop()
        else:
            doc[path[-1]] = value
    return mutate


def _every_node():
    """Cases that break one node of a document: every number in the
    ``[re, im]`` lists, ``residual`` and ``rank_metric`` replaced by each
    bad value, every list with its last item dropped or replaced by an
    object, and every user object replaced by a list. Each message names
    exactly that node."""
    for kind, (_, data) in _DOCS.items():
        for path, node in _nodes(json.loads(data)):
            if path[:1] not in [("h",), ("users",), ("lambda",),
                                ("residual",), ("rank_metric",)]:
                continue
            where = _where(path)
            if isinstance(node, list):
                yield pytest.param(
                    kind, _edit(path, drop=True), ShapeMismatch,
                    f"{where} has length {len(node) - 1}, expected {len(node)}",
                    id=f"{kind}-drop-{where}")
                yield pytest.param(
                    kind, _edit(path, {}), MalformedDocument,
                    f"expected a list of length {len(node)} (at {where})",
                    id=f"{kind}-{where}=object")
            elif isinstance(node, dict):
                yield pytest.param(
                    kind, _edit(path, []), MalformedDocument,
                    f"expected an object (at {where})", id=f"{kind}-{where}=list")
            else:
                for name, value in _BAD.items():
                    if value is None and len(path) == 1:
                        continue   # a null residual or rank_metric is valid
                    yield pytest.param(
                        kind, _edit(path, value), MalformedDocument,
                        f"expected a finite number (at {where})",
                        id=f"{kind}-{where}={name}")


def _set_entry(doc, value):
    doc["h"][0][1][0][0] = value


_NUMBER = "expected a finite number (at h[0][1][0][0][0])"


# Each full message names the first bad node. The header cases are the
# count gate's and the document's own; the entry cases are the grid
# reader's, whose one-pass check the text, null and bool entries would
# pass without its type pass.
@pytest.mark.parametrize("kind, mutate, error, message", [
    pytest.param("channel", *case[1:], id=case[0]) for case in [
        ("bool-nt", lambda d: d.update(nt=True), MalformedDocument,
         "n_t must be >= 1 and integral, got True (at k/nt/nr)"),
        ("bool-format", lambda d: d.update(format=True), MalformedDocument,
         "unsupported channel format True (at format)"),
        ("bool-seed", lambda d: d.update(seed=False), MalformedDocument,
         "field 'seed' must be an integer or null (at seed)"),
        ("bool-entry", lambda d: _set_entry(d, [True, False]), MalformedDocument,
         _NUMBER),
        ("nan-entry", lambda d: _set_entry(d, [float("nan"), 0.0]),
         MalformedDocument, _NUMBER),
        ("inf-entry", lambda d: _set_entry(d, [0.0, float("inf")]),
         MalformedDocument, "expected a finite number (at h[0][1][0][0][1])"),
        ("huge-entry", lambda d: _set_entry(d, [10 ** 400, 0]), MalformedDocument,
         _NUMBER),
        ("str-entry", lambda d: _set_entry(d, ["1.5", 0.0]), MalformedDocument,
         _NUMBER),
        ("null-entry", lambda d: _set_entry(d, [None, 0.0]), MalformedDocument,
         _NUMBER),
        ("three-entry", lambda d: _set_entry(d, [1.0, 0.0, 2.0]), ShapeMismatch,
         "h[0][1][0][0] has length 3, expected 2"),
        ("deep-entry", lambda d: _set_entry(d, [[1.0, 0.0], [2.0, 0.0]]),
         MalformedDocument, _NUMBER),
        ("short-row", lambda d: d["h"][1][0][1].pop(), ShapeMismatch,
         "h[1][0][1] has length 2, expected 3"),
    ]] + list(_every_node()))
def test_malformed_values_rejected(kind, mutate, error, message):
    read, data = _DOCS[kind]
    doc = json.loads(data)
    mutate(doc)
    with pytest.raises(error) as info:
        read(json.dumps(doc))
    assert str(info.value) == message


class TestNetworkValidation:
    def test_shape_mismatch_on_construction(self):
        with pytest.raises(ShapeMismatch):
            channel.InterferenceNetwork(channel.NetworkDims(2, 2, 2),
                                        np.zeros((2, 2, 3, 2), dtype=complex))

    def test_nonfinite_rejected(self):
        # infinity, and an int past the float range: a ValueError, never
        # an OverflowError from the complex conversion
        h = np.zeros((2, 2, 1, 1), dtype=complex)
        h[0, 0] = np.inf
        big = np.ones((2, 2, 1, 1), dtype=int).tolist()
        big[0][1][0][0] = 10 ** 400
        for bad in (h, big):
            with pytest.raises(ValueError, match="^channel entries must be"
                               " finite$"):
                channel.InterferenceNetwork(channel.NetworkDims(2, 1, 1), bad)

    @pytest.mark.parametrize("h", [
        np.full((3, 3, 2, 2), object(), dtype=object), "x",
        np.full((3, 3, 2, 2), "1")])
    def test_non_numeric_rejected(self, h):
        # a ValueError, never a TypeError from the complex conversion
        with pytest.raises(ValueError, match="^channel entries must be an"
                           " array of numbers$"):
            channel.InterferenceNetwork(channel.NetworkDims(3, 2, 2), h)

    @pytest.mark.parametrize("seed", ["x", True, 1.0, [1]])
    def test_seed_the_reader_refuses_is_refused(self, seed):
        # the writer would put it in the document's "seed", which the
        # reader refuses
        net = channel.generate(channel.NetworkDims(3, 2, 2), 0)
        doc = json.loads(channel.serialize(net))
        with pytest.raises(MalformedDocument, match="seed"):
            channel.deserialize(json.dumps(dict(doc, seed=seed)))
        with pytest.raises(ValueError, match="^seed must be None or an"
                           " integer, got "):
            channel.InterferenceNetwork(net.dims, net.h, seed=seed)

    @pytest.mark.parametrize("seed", [None, 7, -3, np.int64(2 ** 40)])
    def test_seed_round_trips(self, seed):
        h = channel.generate(channel.NetworkDims(3, 2, 2), 0).h
        net = channel.InterferenceNetwork(channel.NetworkDims(3, 2, 2), h,
                                          seed=seed)
        assert net.seed is None or type(net.seed) is int
        back = channel.deserialize(channel.serialize(net))
        assert back == net and back.seed == seed

    def test_not_equal_to_other_types(self):
        net = channel.generate(channel.NetworkDims(3, 2, 2), 0)
        assert (net == 3) is False
        assert net != "net"

    def test_numeric_object_array_accepted(self):
        net = channel.generate(channel.NetworkDims(3, 2, 2), 0)
        again = channel.InterferenceNetwork(net.dims, net.h.astype(object))
        assert again.h.dtype == np.complex128
        assert np.array_equal(again.h, net.h)

    def test_channels_owned_and_read_only(self):
        # the network keeps its own copy: an edit of the caller's array
        # does not reach it, and its channels refuse writes
        dims = channel.NetworkDims(3, 2, 2)
        a = channel.generate(dims, 1).h.copy()
        net = channel.InterferenceNetwork(dims, a)
        a[0, 1] = 99
        assert np.array_equal(net.h, channel.generate(dims, 1).h)
        with pytest.raises(ValueError, match="read-only"):
            net.h[0, 1] = 0
        assert not net.h.flags.writeable
