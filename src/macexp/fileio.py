"""JSON and CSV file formats with byte-stable serialization.

All JSON is written with sorted keys, two-space indent, and a trailing
newline; floats use Python's shortest round-trip repr.  Nothing
time-dependent goes into an output file, so a rerun with identical inputs
produces byte-identical files.  Run manifests identify inputs by content
hash rather than by path.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .codebooks import CodebookPair
from .errors import ValidationError
from .exponents import InputLaw
from .probability import Alphabet, Channel
from .typeclasses import TypeVector


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def config_sha256(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest()


def run_manifest(command: str, config: dict) -> dict:
    from . import __version__
    return {
        "command": command,
        "config": config,
        "config_sha256": config_sha256(config),
        "package_version": __version__,
    }


def _require_kind(data: dict, kind: str) -> None:
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ValidationError(f"expected a JSON object with kind={kind!r}")


def _field(data: dict, kind: str, name: str, ndim: int,
           integer: bool = False) -> np.ndarray:
    """Field ``name`` of a ``kind`` document as an ``ndim``-D float64 array,
    or int64 if ``integer``, when its values must be whole numbers."""
    try:
        arr = np.asarray(data[name])
    except ValueError:                  # nested lists of unequal lengths
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "if":
        what = "a number" if ndim == 0 else f"a {ndim}-D array of numbers"
        raise ValidationError(f"{kind} field {name!r} must be {what}")
    if not integer:
        return arr.astype(np.float64)
    with np.errstate(invalid="ignore"):     # nan, inf, past int64: refused below
        ints = arr.astype(np.int64)
    if arr.dtype.kind == "f" and not (ints == arr).all():
        raise ValidationError(f"{kind} field {name!r} must hold whole numbers")
    return ints


def channel_to_dict(w: Channel) -> dict:
    """Channel document: one row per sender pair, x outer, y inner."""
    sx, sy = w.x_alphabet.size, w.y_alphabet.size
    return {
        "kind": "channel",
        "x_size": sx,
        "y_size": sy,
        "z_size": w.z_alphabet.size,
        "rows": [list(map(float, w.w[x, y]))
                 for x in range(sx) for y in range(sy)],
    }


def channel_from_dict(data: dict) -> Channel:
    _require_kind(data, "channel")
    sx, sy, sz = (int(_field(data, "channel", f"{a}_size", 0, integer=True))
                  for a in "xyz")
    rows = data["rows"]
    if not isinstance(rows, list) or len(rows) != sx * sy:
        raise ValidationError(
            f"channel 'rows' must list {sx * sy} rows (x outer, y inner), "
            f"got {len(rows) if isinstance(rows, list) else type(rows).__name__}"
        )
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != sz:
            raise ValidationError(
                f"channel row {idx} (x={idx // sy}, y={idx % sy}) must hold "
                f"{sz} probabilities"
            )
    arr = _field(data, "channel", "rows", 2).reshape(sx, sy, sz)
    return Channel(Alphabet(sx, "X"), Alphabet(sy, "Y"), Alphabet(sz, "Z"),
                   arr)


def law_to_dict(p: InputLaw) -> dict:
    pu, px, py = p.conditionals()
    return {
        "kind": "input_law",
        "p_u": list(map(float, pu)),
        "p_x_given_u": [list(map(float, row)) for row in px],
        "p_y_given_u": [list(map(float, row)) for row in py],
    }


def law_from_dict(data: dict) -> InputLaw:
    _require_kind(data, "input_law")
    return InputLaw.from_components(
        *(_field(data, "input_law", name, ndim) for name, ndim in
          (("p_u", 1), ("p_x_given_u", 2), ("p_y_given_u", 2))))


def codebook_to_dict(pair: CodebookPair) -> dict:
    return {
        "kind": "codebook_pair",
        "n": pair.n,
        "u_size": pair.u_alphabet.size,
        "x_size": pair.x_alphabet.size,
        "y_size": pair.y_alphabet.size,
        "u": pair.u_seq.tolist(),
        "cx": pair.x_book.tolist(),
        "cy": pair.y_book.tolist(),
        "p_ux": pair.p_ux.counts.tolist(),
        "p_uy": pair.p_uy.counts.tolist(),
    }


def codebook_from_dict(data: dict) -> CodebookPair:
    _require_kind(data, "codebook_pair")

    def ints(name, ndim):
        return _field(data, "codebook_pair", name, ndim, integer=True)

    u_alph, x_alph, y_alph = (Alphabet(int(ints(f"{a}_size", 0)), a.upper())
                              for a in "uxy")
    n = int(ints("n", 0))
    p_ux = TypeVector((u_alph, x_alph), ints("p_ux", 2), n)
    p_uy = TypeVector((u_alph, y_alph), ints("p_uy", 2), n)
    return CodebookPair(ints("u", 1), ints("cx", 2), ints("cy", 2),
                        u_alph, x_alph, y_alph, p_ux, p_uy)


def load_channel(path) -> Channel:
    return channel_from_dict(load_json(path))


def load_law(path) -> InputLaw:
    return law_from_dict(load_json(path))


def load_codebook(path) -> CodebookPair:
    return codebook_from_dict(load_json(path))


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
