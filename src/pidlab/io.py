"""JSON device files.

Every kind of object the command line handles is stored as a single JSON
document with a ``kind`` tag, explicit dimensions and index-set sizes, and
complex matrices as nested row-major arrays of ``[re, im]`` pairs (declared
by the ``layout`` field).  Serialization is canonical (sorted keys, two-space
indent, trailing newline), so parse/serialize round-trips are bit-identical
on files this module wrote.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

import numpy as np

from .devices import (
    ClassicalChannel,
    FreeSimulation,
    Instrument,
    Pid,
    Pmd,
    Povm,
    SimulationShape,
)
from .games import GameSpec, PiGameSpec
from .linalg import ChoiMatrix

__all__ = [
    "DeviceFileError",
    "dumps",
    "kind_of",
    "loads",
    "read_device",
    "write_device",
]

# Each kind stored as one stack of matrices: its type, the field holding the
# stack, the sizes indexing the stack and the sizes whose product is the
# matrix dimension.  Sizes are attributes of the object under the same name.
_STACKS = {
    "pid": (Pid, "blocks", ("n_programs", "n_outcomes"), ("din", "dout")),
    "pmd": (Pmd, "effects", ("n_programs", "n_outcomes"), ("dim",)),
    "povm": (Povm, "effects", ("n_outcomes",), ("dim",)),
    "instrument": (Instrument, "branches", ("n_branches",), ("din", "dout")),
    "game": (GameSpec, "effects", ("n_m", "n_n"), ("d_ref", "dout")),
    "pigame": (PiGameSpec, "ensemble", ("n_m", "n_n", "n_l"), ("din",)),
}
KINDS = (*_STACKS, "simulation")


class DeviceFileError(ValueError):
    """Malformed device file: wrong schema, shapes, or values."""


def _encode(a) -> list:
    """Complex matrices, under any leading shape, as nested ``[re, im]`` pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


# a JSON value that is not a number, as an error message names it
_NOT_NUMBERS = {str: "a string", bool: "a boolean", type(None): "null", dict: "an object"}


def _check_numbers(data: Any, what: str) -> None:
    """Raise naming ``what`` unless every leaf of the nested lists ``data`` is a JSON number."""
    stack = [data]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif type(v) not in (int, float):  # a bool is an int to Python, not a number to JSON
            raise DeviceFileError(f"{what}: expected numbers, found {_NOT_NUMBERS[type(v)]}")


def _decode_matrices(data: Any, counts: tuple[int, ...], dim: int, what: str) -> np.ndarray:
    """A ``(*counts, dim, dim)`` stack of matrices nested in lists of the lengths ``counts``."""
    if counts:
        if not isinstance(data, list) or len(data) != counts[0]:
            got = f"{len(data)} entries" if isinstance(data, list) else type(data).__name__
            raise DeviceFileError(f"{what}: expected a list of {counts[0]} entries, got {got}")
        return np.stack(
            [_decode_matrices(v, counts[1:], dim, f"{what}[{k}]") for k, v in enumerate(data)]
        )
    _check_numbers(data, what)
    try:
        arr = np.asarray(data, dtype=float)
    except ValueError as exc:
        raise DeviceFileError(f"{what}: not a numeric matrix") from exc
    if arr.shape != (dim, dim, 2):
        raise DeviceFileError(
            f"{what}: expected shape {(dim, dim, 2)} of [re, im] pairs, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DeviceFileError(f"{what}: every number must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(data: dict, key: str, kind: str) -> Any:
    if key not in data:
        raise DeviceFileError(f"{kind} file is missing the field {key!r}")
    return data[key]


def _positive_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _int_field(data: dict, key: str, kind: str) -> int:
    v = _require(data, key, kind)
    if not _positive_int(v):
        raise DeviceFileError(f"{kind} field {key!r} must be a positive integer")
    return v


def _metadata(data: dict) -> dict:
    md = data.get("metadata", {})
    if not isinstance(md, dict):
        raise DeviceFileError("metadata must be an object")
    return md


def kind_of(obj) -> str:
    """The ``kind`` of the device file that stores ``obj``."""
    for kind, cls in [("simulation", FreeSimulation), *((k, v[0]) for k, v in _STACKS.items())]:
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"cannot serialize objects of type {type(obj).__name__}")


def to_document(obj, metadata: dict | None = None) -> dict:
    """Encode a supported object as a JSON-ready document."""
    doc: dict[str, Any] = {"layout": "row-major", "metadata": metadata or {}}
    kind = kind_of(obj)
    if kind == "simulation":
        s = obj.shape
        doc.update(
            kind="simulation",
            shape={k: getattr(s, k) for k in s.__dataclass_fields__},
            pre=_encode(obj.pre.mat),
            post=_encode([b.mat for b in obj.post.branches]),
            p_table=obj.p_cc.table.tolist(),
            q_table=obj.q_cc.table.tolist(),
        )
        return doc
    _, field, counts, dims = _STACKS[kind]
    stack = getattr(obj, field)
    if kind == "instrument":
        stack = [b.mat for b in stack]
    elif kind == "povm":
        doc["factor_dims"] = list(obj.factor_dims) if obj.factor_dims else None
    elif kind == "pigame":
        doc["povm_l"] = to_document(obj.povm_l)
    doc.update({k: getattr(obj, k) for k in dims + counts}, kind=kind)
    doc[field] = _encode(stack)
    return doc


def from_document(data: dict, kinds: tuple[str, ...] = KINDS):
    """Decode a document of one of ``kinds``; raises :class:`DeviceFileError` on schema problems."""
    if not isinstance(data, dict):
        raise DeviceFileError("device file must hold a JSON object")
    kind = data.get("kind")
    if kind not in kinds:
        raise DeviceFileError(f"expected kind {' or '.join(kinds)}, found kind {kind!r}")
    if data.get("layout", "row-major") != "row-major":
        raise DeviceFileError("only row-major layout is supported")
    _metadata(data)
    if kind == "simulation":
        return _simulation(data)
    cls, field, counts, dims = _STACKS[kind]
    sizes = {k: _int_field(data, k, kind) for k in dims + counts}
    stack = _decode_matrices(
        _require(data, field, kind),
        tuple(sizes[k] for k in counts),
        math.prod(sizes[k] for k in dims),
        field,
    )
    # the constructor takes the stack and the sizes it cannot read off the stack
    kwargs = {k: v for k, v in sizes.items() if k in cls.__dataclass_fields__}
    if kind == "instrument":
        stack = tuple(ChoiMatrix(sizes["din"], sizes["dout"], b) for b in stack)
    elif kind == "povm":
        fd = data.get("factor_dims")
        if fd is not None and not (
            isinstance(fd, list) and all(map(_positive_int, fd)) and math.prod(fd) == sizes["dim"]
        ):
            raise DeviceFileError(
                "povm field 'factor_dims' must be null or positive integers "
                f"multiplying to {sizes['dim']}"
            )
        kwargs["factor_dims"] = tuple(fd) if fd else None
    elif kind == "pigame":
        povm_l = _require(data, "povm_l", kind)
        try:
            kwargs["povm_l"] = from_document(povm_l, ("povm",))
        except DeviceFileError as exc:  # name the field from the outer document
            sep = "." if re.match(r"\w+(\[\d+\])*: ", str(exc)) else ": "
            raise DeviceFileError(f"povm_l{sep}{exc}") from exc
    return cls(**kwargs, **{field: stack})


def _simulation(data: dict) -> FreeSimulation:
    kind = "simulation"
    shape_raw = _require(data, "shape", kind)
    if not isinstance(shape_raw, dict):
        raise DeviceFileError("simulation field 'shape' must be an object")
    fields = SimulationShape.__dataclass_fields__
    unknown = sorted(shape_raw.keys() - fields.keys())
    if unknown:
        raise DeviceFileError(f"simulation field 'shape' has unknown sizes {unknown}")
    shape = SimulationShape(**{k: _int_field(shape_raw, k, "simulation shape") for k in fields})
    d_pre, d_post = math.prod(shape.pre_dims), math.prod(shape.post_dims)
    pre = ChoiMatrix(
        *shape.pre_dims, _decode_matrices(_require(data, "pre", kind), (), d_pre, "pre")
    )
    branches = _decode_matrices(_require(data, "post", kind), (shape.n_branches,), d_post, "post")
    post = Instrument(tuple(ChoiMatrix(*shape.post_dims, b) for b in branches))
    tables = []
    for key in ("p_table", "q_table"):
        raw = _require(data, key, kind)
        _check_numbers(raw, f"{kind} field {key!r}")
        try:
            tables.append(ClassicalChannel(raw))
        except ValueError as exc:
            raise DeviceFileError(f"{kind} field {key!r}: {exc}") from exc
    return FreeSimulation(shape=shape, pre=pre, post=post, p_cc=tables[0], q_cc=tables[1])


def dumps(obj, metadata: dict | None = None) -> str:
    return json.dumps(to_document(obj, metadata), indent=2, sort_keys=True) + "\n"


def loads(text: str, kinds: tuple[str, ...] = KINDS):
    """The object ``text`` holds; raises :class:`DeviceFileError` on any problem with it."""
    try:
        return from_document(json.loads(text), kinds)
    except json.JSONDecodeError as exc:
        raise DeviceFileError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # a constructor's check, or already a DeviceFileError
        raise DeviceFileError(str(exc)) from exc


def write_device(path: str, obj, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, metadata))


def read_device(path: str, kinds: tuple[str, ...] = KINDS):
    """The object stored at ``path``, which must be of one of ``kinds``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DeviceFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return loads(text, kinds)
