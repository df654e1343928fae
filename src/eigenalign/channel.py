"""K-user MIMO interference network: generation and (de)serialization.

A network is the full K x K grid of channel matrices ``h[i, j]`` from
transmitter ``j`` to receiver ``i`` (direct links on the diagonal), stored
as one complex array of shape ``(K, K, n_r, n_t)``.

Random networks draw every entry i.i.d. circularly-symmetric complex
Gaussian with unit variance (real and imaginary parts each of variance
1/2), the standard rich-scattering fading model. Reproducibility rule:
entries of ``h[i, j]`` come from the PCG64 stream seeded with
``SeedSequence(seed, spawn_key=(i, j))``, real part drawn before imaginary
part, so identical seeds give bit-identical networks on any platform. One
derivation, from each seed's numpy ``SeedSequence(seed).pool``, serves a
batch of seeds and keys; numpy's per-key SeedSequence is the test oracle.
It draws the bare grids of a batch of seeds in one array, which the
feasibility sweep hands to the probe engine as it is; :func:`generate`
wraps its one grid in a network, which keeps a read-only copy.
"""

import json
import numbers
import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import MalformedDocument, ShapeMismatch

#: Version tag written into every channel document.
CHANNEL_FORMAT = 1


def _count(name, x, least=1):
    """``x`` as an ``int``; ``bool``, non-integers and ``x < least`` raise."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
        raise ValueError(f"{name} must be >= {least} and integral, got {x!r}")
    return int(x)


def _positive(name, x):
    """``x``; ``bool``, a non-real number, NaN and ``x <= 0`` raise
    ValueError."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real) and x > 0):
        raise ValueError(f"{name} must be > 0, got {x!r}")
    return x


def _instance(name, x, kind, what=None):
    """``x`` if it is a ``kind``, the one check of an argument's kind; else
    ValueError: ``name`` must be ``what`` (by default ``kind``'s name after
    its article), got ``x``'s type."""
    if not isinstance(x, kind):
        if what is None:
            what = ("an " if kind.__name__[0] in "AEIOU" else "a ")
            what += kind.__name__
        raise ValueError(f"{name} must be {what}, got {type(x).__name__}")
    return x


def _array(name, x, shape):
    """``x`` as a complex array of ``shape``, the one gate for an array a
    caller hands the package: text or a non-number raises ValueError naming
    ``name``, another shape ShapeMismatch, and a NaN, infinite or
    out-of-range entry (an ``int`` past the float range) ValueError."""
    try:
        if (a := np.asarray(x)).dtype.kind in "SUV":
            raise TypeError
        a = a.astype(np.complex128, copy=False)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if a.shape != shape:
        raise ShapeMismatch(f"{name}: shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class NetworkDims:
    """Dimensions of a K-user interference network (integers, not bool)."""

    k: int
    n_t: int
    n_r: int

    def __post_init__(self):
        for name, least in (("k", 2), ("n_t", 1), ("n_r", 1)):
            object.__setattr__(self, name,
                               _count(name, getattr(self, name), least))


@dataclass(frozen=True, eq=False)
class InterferenceNetwork:
    """Immutable bundle of dims plus all K^2 channel matrices.

    ``h`` is the network's own read-only copy of the array it was given,
    so neither the caller's array nor a write through ``h`` changes it.
    ``seed`` is a provenance tag only; networks built from explicit
    matrices carry ``seed=None``.
    """

    dims: NetworkDims
    h: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        dims = _instance("dims", self.dims, NetworkDims)
        k, n_t, n_r = dims.k, dims.n_t, dims.n_r
        h = np.array(_array("channel entries", self.h, (k, k, n_r, n_t)))
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        if self.seed is not None:   # written as the document's "seed"
            if isinstance(self.seed, bool) or not isinstance(
                    self.seed, numbers.Integral):
                raise ValueError(f"seed must be None or an integer, got"
                                 f" {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))

    def __eq__(self, other):
        if not isinstance(other, InterferenceNetwork):
            return NotImplemented
        return (self.dims == other.dims and self.seed == other.seed
                and np.array_equal(self.h, other.h))


# SeedSequence's hash (fixed by NEP 19) works mod 2**32: its constants start
# at INIT_A and step by MULT_A, generate_state has 8 more (both as columns).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_HC_FIRST = np.array([[_INIT_A * _MULT_A ** n & _M32] for n in range(5)], np.uint32)
_STATE_HASH = np.array(list(accumulate([0x58f38ded] * 8, lambda h, m: h * m & _M32,
                                       initial=0x8b51f9dd)), np.uint32)[:, None]


def _hashmix(v, hc, hc_next):
    """SeedSequence's ``hashmix`` at constant ``hc``; it and ``_mix`` act on
    uint32 arrays, which wrap mod 2**32."""
    v = (v ^ hc) * hc_next
    return v ^ v >> 16


def _mix(x, y):
    r = 0xca01f9dd * x - 0x4973f715 * y
    return r ^ r >> 16


class _SeedWords(ISeedSequence):
    """PCG64's four seed words, derived in advance."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seeds, keys):
    """Generators bit-identical to ``Generator(PCG64(SeedSequence(seeds[r],
    spawn_key=keys[r])))``, made one a row as they are consumed. ``keys`` is
    an ``(n, width)`` integer array of 32-bit words, one key a row; both are
    trusted (seeds have passed a gate, keys are grid indices). Each distinct
    seed's pool is numpy's ``SeedSequence(seed).pool``, taken once; the key
    words of all rows are absorbed a column at a time; then ``generate_state``."""
    keys = np.asarray(keys)
    index = {}
    rows = [index.setdefault(operator.index(s), len(index)) for s in seeds]
    # a seed's 32-bit words (at least four, zero-padded) took 4 hashmix steps each
    hc = _HC_FIRST * np.array([pow(_MULT_A, 4 * max(s.bit_length() + 31 >> 5, 4),
                               1 << 32) for s in index], np.uint32)[rows]
    pool = np.array([np.random.SeedSequence(s).pool for s in index],
                    np.uint32).reshape(-1, 4)[rows].T
    for col in keys.astype(np.uint32).T:
        pool = _mix(pool, _hashmix(col, hc[:4], hc[1:]))
        hc *= pow(_MULT_A, 4, 1 << 32)
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_HASH[:-1], _STATE_HASH[1:])
    return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in
            state.T.astype("<u4", order="C").view("<u8").astype(np.uint64))


def _gaussians(seeds, keys, shape):
    """Unit-variance circular complex Gaussians ``(n,) + shape``, row ``r``
    from the stream of ``(seeds[r], keys[r])``: real parts, then imaginary."""
    x = np.empty((len(keys), 2) + shape)
    for rng, out in zip(_streams(seeds, keys), x):
        rng.standard_normal(out=out)
    return np.sqrt(0.5) * (x[:, 0] + 1j * x[:, 1])


def _grids(dims, seeds):
    """The channel grid ``generate(dims, seed).h`` of every seed, stacked
    ``(S, K, K, n_r, n_t)``, from one stream derivation."""
    k, shape = dims.k, (dims.n_r, dims.n_t)
    keys = np.indices((len(seeds), k, k)).reshape(3, -1)[1:].T
    grids = _gaussians([s for s in seeds for _ in range(k * k)], keys, shape)
    return grids.reshape((-1, k, k) + shape)


def generate(dims, seed):
    """Draw a random network, a pure function of ``(dims, seed)``; a seed
    that is not an integer >= 0 (``bool`` is not) raises ValueError."""
    _instance("dims", dims, NetworkDims)
    seed = _count("seed", seed, 0)
    return InterferenceNetwork(dims, _grids(dims, [seed])[0], seed=seed)


def serialize(net):
    """Serialize a network to the versioned JSON channel document.

    Writes the bytes of ``json.dumps(doc, indent=1)`` and a newline, the
    grid as that layout's template filled in one ``%`` call: ``%r`` of a
    finite float is the shortest round-trip form ``json`` writes, so
    ``deserialize(serialize(net))`` reproduces the entries exactly.
    """
    _instance("net", net, InterferenceNetwork)
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
_REAL = frozenset({int, float})


def _read_document(data, fmt, kind):
    """Decode and parse a versioned JSON document and check its header.

    Shared by the channel and the solution documents: UTF-8 bytes (or
    text), a top-level object, ``"format": fmt`` and ``k/nt/nr`` that make
    valid :class:`NetworkDims`. Returns ``(doc, dims)``; ValueError if
    ``data`` is neither bytes nor text.
    """
    if not isinstance(_instance("data", data, (bytes, bytearray, str),
                                "bytes or text"), str):
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
    except ValueError:   # an integer past Python's digit limit
        raise MalformedDocument("integer with too many digits",
                                "document root") from None
    except RecursionError:
        raise MalformedDocument("JSON nested too deeply",
                                "document root") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object", "document root")
    if type(doc.get("format")) is not int or doc["format"] != fmt:
        raise MalformedDocument(
            f"unsupported {kind} format {doc.get('format')!r}", "format")
    try:
        dims = NetworkDims(doc.get("k"), doc.get("nt"), doc.get("nr"))
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


def _entries(items, shape, where):
    """Lists nested ``shape`` deep whose leaves are ``[re, im]`` pairs of
    finite JSON numbers, as a complex array of ``shape`` holding exactly
    the numbers read. One ``np.array`` and one pass over the leaves' types
    (``np.array`` reads "1.5", true and null as numbers) check them all;
    only input that fails is walked, to name its first bad node: a list of
    the wrong length raises ShapeMismatch, any other fault
    MalformedDocument."""
    try:
        out = np.array(items, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        out = None
    if out is not None and out.shape == shape + (2,) and np.isfinite(out).all():
        leaves = items
        for _ in shape:
            leaves = chain.from_iterable(leaves)
        if set(map(type, leaves)) <= _REAL:
            return out.view(np.complex128)[..., 0]
    _walk(items, shape + (2,), where)
    raise AssertionError(f"{where} failed the one-pass check but not the walk")


def _walk(node, shape, where):
    """Raise at the first node of ``node`` that :func:`_entries` refuses."""
    if not shape:
        _real(node, where)
        return
    if type(node) is not list:
        raise MalformedDocument(f"expected a list of length {shape[0]}", where)
    if len(node) != shape[0]:
        raise ShapeMismatch(f"{where} has length {len(node)}, expected {shape[0]}")
    for i, item in enumerate(node):
        _walk(item, shape[1:], f"{where}[{i}]")


def deserialize(data):
    """Parse a channel document back into an :class:`InterferenceNetwork`.

    Raises
    ------
    MalformedDocument
        On bytes that are not UTF-8, syntax errors, missing fields, wrong
        field types (``true``/``false`` are not numbers) or non-finite
        entries; the message names the offending location.
    ShapeMismatch
        When a list in ``h`` (the grid, a matrix, a row or an ``[re, im]``
        pair) has another length than the declared dimensions give; the
        message names the list.
    """
    doc, dims = _read_document(data, CHANNEL_FORMAT, "channel")
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise MalformedDocument("field 'seed' must be an integer or null", "seed")
    h = _entries(doc.get("h"), (dims.k, dims.k, dims.n_r, dims.n_t), "h")
    return InterferenceNetwork(dims, h, seed=seed)
