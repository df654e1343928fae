"""K-user MIMO interference network: generation and (de)serialization.

A network is the full K x K grid of channel matrices ``h[i, j]`` from
transmitter ``j`` to receiver ``i`` (direct links on the diagonal), stored
as one complex array of shape ``(K, K, n_r, n_t)``.

Random networks draw every entry i.i.d. circularly-symmetric complex
Gaussian with unit variance (real and imaginary parts each of variance
1/2), the standard rich-scattering fading model. Reproducibility rule:
entries of ``h[i, j]`` come from the PCG64 stream seeded with
``SeedSequence(seed, spawn_key=(i, j))``, real part drawn before imaginary
part, so identical seeds give bit-identical networks on any platform.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedDocument, ShapeMismatch

#: Version tag written into every channel document.
CHANNEL_FORMAT = 1


@dataclass(frozen=True)
class NetworkDims:
    """Dimensions of a K-user interference network."""

    k: int
    n_t: int
    n_r: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need at least 2 users, got k={self.k}")
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError(
                f"antenna counts must be >= 1, got n_t={self.n_t}, n_r={self.n_r}")


@dataclass(frozen=True, eq=False)
class InterferenceNetwork:
    """Immutable bundle of dims plus all K^2 channel matrices.

    ``seed`` is a provenance tag only; networks built from explicit
    matrices carry ``seed=None``.
    """

    dims: NetworkDims
    h: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        expected = (self.dims.k, self.dims.k, self.dims.n_r, self.dims.n_t)
        h = np.asarray(self.h, dtype=np.complex128)
        if h.shape != expected:
            raise ShapeMismatch(
                f"channel grid has shape {h.shape}, expected {expected}")
        if not np.isfinite(h).all():
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "h", h)

    def __eq__(self, other):
        if not isinstance(other, InterferenceNetwork):
            return NotImplemented
        return (self.dims == other.dims and self.seed == other.seed
                and np.array_equal(self.h, other.h))

    def cross_pairs(self):
        """All (receiver, transmitter) index pairs with i != j."""
        k = self.dims.k
        return [(i, j) for i in range(k) for j in range(k) if i != j]


def generate(dims, seed):
    """Draw a random network, a pure function of ``(dims, seed)``."""
    if not isinstance(dims, NetworkDims):
        dims = NetworkDims(*dims)
    h = np.empty((dims.k, dims.k, dims.n_r, dims.n_t), dtype=np.complex128)
    scale = np.sqrt(0.5)
    for i in range(dims.k):
        for j in range(dims.k):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, j))))
            re = rng.standard_normal((dims.n_r, dims.n_t))
            im = rng.standard_normal((dims.n_r, dims.n_t))
            h[i, j] = scale * (re + 1j * im)
    return InterferenceNetwork(dims, h, seed=int(seed))


def serialize(net):
    """Serialize a network to the versioned JSON channel document.

    Writes the bytes of ``json.dumps(doc, indent=1)`` and a newline, the
    grid as that layout's template filled in one ``%`` call: ``%r`` of a
    finite float is the shortest round-trip form ``json`` writes, so
    ``deserialize(serialize(net))`` reproduces the entries exactly.
    """
    head = json.dumps({"format": CHANNEL_FORMAT, "k": net.dims.k, "nt": net.dims.n_t,
                       "nr": net.dims.n_r, "seed": net.seed}, indent=1)
    body = "%r"
    for d, n in reversed(list(enumerate(net.h.shape + (2,), start=1))):
        sep = "\n" + " " * (d + 1)   # items at indent d + 1, brackets at d
        body = "[" + sep + ("," + sep).join([body] * n) + "\n" + " " * d + "]"
    body %= tuple(net.h.ravel().view(np.float64).tolist())
    return (head[:-2] + ',\n "h": ' + body + "\n}\n").encode("utf-8")


#: Exact types a JSON number parses to; ``bool`` (``true``/``false``) is
#: a subclass of ``int`` and is refused by comparing types, not instances.
_REAL = (int, float)


def _read_document(data, fmt, kind):
    """Decode and parse a versioned JSON document and check its header.

    Shared by the channel and the solution documents: UTF-8 bytes (or
    text), a top-level object, ``"format": fmt`` and integer ``k/nt/nr``
    that make valid :class:`NetworkDims`. Returns ``(doc, dims)``.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not UTF-8 text: {exc.reason}",
                                    f"byte {exc.start}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc.msg}",
                                f"line {exc.lineno}") from exc
    except RecursionError:
        raise MalformedDocument("JSON nested too deeply",
                                "document root") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object", "document root")
    if type(doc.get("format")) is not int or doc["format"] != fmt:
        raise MalformedDocument(
            f"unsupported {kind} format {doc.get('format')!r}", "format")
    for key in ("k", "nt", "nr"):
        if type(doc.get(key)) is not int:
            raise MalformedDocument(f"field '{key}' must be an integer", key)
    try:
        dims = NetworkDims(doc["k"], doc["nt"], doc["nr"])
    except ValueError as exc:
        raise MalformedDocument(str(exc), "k/nt/nr") from exc
    return doc, dims


def _real(value, where):
    """A finite JSON number as a float."""
    try:
        out = float(value) if type(value) in _REAL else None
    except OverflowError:
        out = None
    if out is None or not np.isfinite(out):
        raise MalformedDocument("expected a finite number", where)
    return out


def _parse_vector(items, length, where):
    """A length-``length`` list of ``[re, im]`` pairs of finite numbers as
    a complex vector holding exactly the numbers read."""
    if type(items) is not list or len(items) != length:
        raise MalformedDocument(
            f"expected a length-{length} list of [re, im] pairs", where)
    for c, e in enumerate(items):
        if (type(e) is not list or len(e) != 2
                or type(e[0]) not in _REAL or type(e[1]) not in _REAL):
            raise MalformedDocument("entry must be a [re, im] pair",
                                    f"{where}[{c}]")
    try:
        out = np.array(items, dtype=np.float64)
    except OverflowError:
        raise MalformedDocument("number out of range", where) from None
    if not np.isfinite(out).all():
        raise MalformedDocument("entries must be finite", where)
    return out.view(np.complex128)[:, 0]


def _parse_matrix(m, n_r, n_t, where):
    if not isinstance(m, list):
        raise MalformedDocument("matrix must be an array of rows", where)
    if len(m) != n_r or any(not isinstance(r, list) or len(r) != n_t for r in m):
        raise ShapeMismatch(
            f"matrix at {where} is {len(m)}x{len(m[0]) if m and isinstance(m[0], list) else '?'},"
            f" expected {n_r}x{n_t}")
    return np.stack([_parse_vector(row, n_t, f"{where}[{r}]")
                     for r, row in enumerate(m)])


def deserialize(data):
    """Parse a channel document back into an :class:`InterferenceNetwork`.

    Raises
    ------
    MalformedDocument
        On bytes that are not UTF-8, syntax errors, missing fields, wrong
        field types (``true``/``false`` are not numbers) or non-finite
        entries; the message names the offending location.
    ShapeMismatch
        When a matrix disagrees with the declared dimensions.
    """
    doc, dims = _read_document(data, CHANNEL_FORMAT, "channel")
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise MalformedDocument("field 'seed' must be an integer or null", "seed")
    grid = doc.get("h")
    if (not isinstance(grid, list) or len(grid) != dims.k
            or any(not isinstance(row, list) or len(row) != dims.k for row in grid)):
        raise MalformedDocument(f"'h' must be a {dims.k}x{dims.k} grid", "h")
    # One pass checks the grid, leaf types too (np.array reads "1.5", true and
    # null as numbers); only a grid that fails is walked, to name the location.
    try:
        h = np.array(grid, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        h = np.empty(0)
    if (h.shape == (dims.k, dims.k, dims.n_r, dims.n_t, 2) and np.isfinite(h).all()
            and {type(v) for a in grid for m in a for r in m for e in r
                 for v in e}.issubset(_REAL)):
        h = h.view(np.complex128)[..., 0]
    else:
        h = np.array([[_parse_matrix(m, dims.n_r, dims.n_t, f"h[{i}][{j}]")
                       for j, m in enumerate(row)] for i, row in enumerate(grid)])
    return InterferenceNetwork(dims, h, seed=seed)
