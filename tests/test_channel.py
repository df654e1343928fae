import json

import numpy as np
import pytest

from eigenalign import channel
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
        with pytest.raises(ValueError):
            channel.NetworkDims(1, 2, 2)
        with pytest.raises(ValueError):
            channel.NetworkDims(2, 0, 2)


class TestSerialization:
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
        with pytest.raises(ShapeMismatch, match=r"h\[0\]\[1\]"):
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
        with pytest.raises(MalformedDocument, match="nr"):
            channel.deserialize(json.dumps({"format": 1, "k": 2, "nt": 2}))

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
        with pytest.raises(MalformedDocument, match=r"h\[0\]\[1\]"):
            channel.deserialize(json.dumps(doc))

    def test_wrong_grid_size(self):
        doc = {"format": 1, "k": 3, "nt": 1, "nr": 1, "seed": 0,
               "h": [[[[1.0, 0.0]]]]}
        with pytest.raises(MalformedDocument, match="'h'"):
            channel.deserialize(json.dumps(doc))


def _set_entry(doc, value):
    doc["h"][0][1][0][0] = value


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(nt=True),
    lambda d: d.update(format=True),
    lambda d: d.update(seed=False),
    lambda d: _set_entry(d, [True, False]),
    lambda d: _set_entry(d, [float("nan"), 0.0]),
    lambda d: _set_entry(d, [0.0, float("inf")]),
    lambda d: _set_entry(d, [10 ** 400, 0]),
], ids=["bool-nt", "bool-format", "bool-seed", "bool-entry",
        "nan-entry", "inf-entry", "huge-entry"])
def test_malformed_values_rejected(mutate):
    doc = json.loads(channel.serialize(
        channel.generate(channel.NetworkDims(2, 2, 2), 0)))
    mutate(doc)
    with pytest.raises(MalformedDocument):
        channel.deserialize(json.dumps(doc))


class TestNetworkValidation:
    def test_shape_mismatch_on_construction(self):
        with pytest.raises(ShapeMismatch):
            channel.InterferenceNetwork(channel.NetworkDims(2, 2, 2),
                                        np.zeros((2, 2, 3, 2), dtype=complex))

    def test_nonfinite_rejected(self):
        h = np.zeros((2, 2, 1, 1), dtype=complex)
        h[0, 0] = np.inf
        with pytest.raises(ValueError):
            channel.InterferenceNetwork(channel.NetworkDims(2, 1, 1), h)
