"""Model persistence: a versioned JSON container for fitted factorizations.

The file is self-describing and complete: factors, scale, and per-column
marginal summaries (mean/stddev pairs for pca, full empirical tables for
coca/xpca) travel together, so a loaded model imputes without the original
data. Save, load, impute reproduces the in-memory model's output bit for bit,
and saving a loaded version 2 file reproduces it byte for byte.

Format version 2, the one save_model writes, is one JSON object with the
fields ``format``, ``version``, ``method``, ``m``, ``n``, ``rank``,
``sigma``, ``column_names``, ``U``, ``V``, ``marginals`` and ``info``. The
numeric arrays are base64 strings of their raw little-endian bytes,
row-major:

- ``U`` (m×rank) and ``V`` (n×rank): float64;
- ``marginals.stats`` for pca (n×2 mean/stddev pairs): float64;
- ``marginals.tables[j].counts`` for coca/xpca: int64, and
  ``marginals.tables[j].distinct``: float64 of the same length.

Every other field, ``info`` and ``column_names`` included, is plain JSON.
The whole object is written by one ``json.dumps`` call, which runs the C
encoder (``json.dump``, or any ``indent``, runs the pure-Python one).
Version 1 files, which held the arrays as nested JSON number lists written
with ``indent=1``, still load. Older files of either version may carry an
``epsilon`` field, which is ignored, and xpca ones an ``info["seed"]``,
which stays in ``info`` as a plain record.

On the benchmark's xpca-exp-tall model (4000×100, rank 3, about 800
distinct values per column) a version 1 file took 2,972,632 bytes, 0.28 s
to save and 0.077 s to load; version 2 takes 1,842,809 bytes, 0.015 s and
0.022 s (self time in one traced run, raw seconds, one BLAS thread on a
2-vCPU VM).
"""

import base64
import json

import numpy as np

from .gaussian import FactorModel
from .marginals import Edf

FORMAT_TAG = "gcfactor-model"
FORMAT_VERSION = 2


def _plain(value):
    """Recursively coerce numpy scalars/arrays so json can encode them."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _pack(array, dtype):
    """base64 of the array's row-major bytes as little-endian dtype."""
    wire = np.dtype(dtype).newbyteorder("<")
    raw = np.ascontiguousarray(array, dtype=wire).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unpack(text, field, dtype, shape):
    """Decode a _pack string into an owned native dtype array of shape;
    shape None means 1-d of whatever length the data has."""
    if not isinstance(text, str):
        raise ValueError("model field %s must be a base64 string" % field)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError("model field %s is not valid base64 (%s)"
                         % (field, exc))
    wire = np.dtype(dtype).newbyteorder("<")
    if shape is None:
        shape = (len(raw) // wire.itemsize,)
    expected = wire.itemsize * int(np.prod(shape))
    if len(raw) != expected:
        raise ValueError("model field %s holds %d bytes, not the %d of "
                         "shape %s" % (field, len(raw), expected, shape))
    return np.frombuffer(raw, dtype=wire).reshape(shape).astype(dtype)


def _from_list(value, field, dtype, shape):
    """Version 1: a nested JSON number list; callers check the shape."""
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError("model field %s is not a number list (%s)"
                         % (field, exc))


def _marginals_payload(model):
    if model.method == "pca":
        return {"kind": "stats", "stats": _pack(model.marginals, np.float64)}
    return {
        "kind": "edf",
        "tables": [{"distinct": _pack(edf.distinct, np.float64),
                    "counts": _pack(edf.counts, np.int64)}
                   for edf in model.marginals],
    }


def save_model(model, path):
    """Write a FactorModel to path in format version 2; returns the path."""
    payload = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "method": model.method,
        "m": int(model.U.shape[0]),
        "n": int(model.V.shape[0]),
        "rank": int(model.U.shape[1]),
        "sigma": float(model.sigma),
        "column_names": list(model.column_names),
        "U": _pack(model.U, np.float64),
        "V": _pack(model.V, np.float64),
        "marginals": _marginals_payload(model),
        "info": _plain(model.info),
    }
    text = json.dumps(payload) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _require(payload, key):
    if key not in payload:
        raise ValueError("model file is missing field %r" % key)
    return payload[key]


def _typed(value, field, types, what):
    """value, if it is of one of types; else a ValueError naming the field.
    JSON true and false are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError("model field %s must be %s, not %s"
                         % (field, what, json.dumps(value)[:40]))
    return value


def _number(payload, key, kind):
    return kind(_typed(_require(payload, key), key, (int, float),
                       "a number"))


def load_model(path):
    """Read a model file written by save_model, format version 1 or 2."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("not a model file: %s (%s)" % (path, exc))
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        raise ValueError("not a model file: %s" % path)
    version = payload.get("version")
    if version == 1:
        decode = _from_list
    elif version == 2:
        decode = _unpack
    else:
        raise ValueError("unsupported model file version %r" % version)

    method = _require(payload, "method")
    m, n, rank = (_number(payload, k, int) for k in ("m", "n", "rank"))
    U = decode(_require(payload, "U"), "U", np.float64, (m, rank))
    V = decode(_require(payload, "V"), "V", np.float64, (n, rank))
    if U.shape != (m, rank) or V.shape != (n, rank):
        raise ValueError("factor shapes disagree with the declared dimensions")

    marg = _typed(_require(payload, "marginals"), "marginals", dict,
                  "an object")
    kind = marg.get("kind")
    if kind == "stats":
        stats = decode(_require(marg, "stats"), "marginals.stats",
                       np.float64, (n, 2))
        marginals = [(mu, sd) for mu, sd in stats.tolist()]
    elif kind == "edf":
        marginals = []
        tables = _typed(_require(marg, "tables"), "marginals.tables", list,
                        "a list")
        for j, table in enumerate(tables):
            field = "marginals.tables[%d]" % j
            _typed(table, field, dict, "an object")
            counts = decode(_require(table, "counts"), field + ".counts",
                            np.int64, None)
            distinct = decode(_require(table, "distinct"),
                              field + ".distinct", np.float64, counts.shape)
            marginals.append(Edf(distinct, counts))
    else:
        raise ValueError("unknown marginal payload kind %r" % kind)
    if len(marginals) != n:
        raise ValueError("marginal count disagrees with the declared width")

    info = payload.get("info")
    if info is not None:
        _typed(info, "info", dict, "an object")
    return FactorModel(
        method,
        U,
        V,
        _number(payload, "sigma", float),
        marginals,
        column_names=_typed(_require(payload, "column_names"),
                            "column_names", list, "a list"),
        info=info,
    )
