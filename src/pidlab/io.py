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
    "loads",
    "read_device",
    "write_device",
]

KINDS = ("pid", "pmd", "povm", "instrument", "game", "pigame", "simulation")


class DeviceFileError(ValueError):
    """Malformed device file: wrong schema, shapes, or values."""


def _encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _decode_matrices(data: Any, counts: tuple[int, ...], dim: int, what: str) -> np.ndarray:
    """A ``(*counts, dim, dim)`` stack of matrices nested in lists of the lengths ``counts``."""
    if counts:
        if not isinstance(data, list) or len(data) != counts[0]:
            got = f"{len(data)} entries" if isinstance(data, list) else type(data).__name__
            raise DeviceFileError(f"{what}: expected a list of {counts[0]} entries, got {got}")
        return np.stack(
            [_decode_matrices(v, counts[1:], dim, f"{what}[{k}]") for k, v in enumerate(data)]
        )
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DeviceFileError(f"{what}: not a numeric matrix") from exc
    if arr.shape != (dim, dim, 2):
        raise DeviceFileError(
            f"{what}: expected shape {(dim, dim, 2)} of [re, im] pairs, got {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _require(data: dict, key: str, kind: str) -> Any:
    if key not in data:
        raise DeviceFileError(f"{kind} file is missing the field {key!r}")
    return data[key]


def _int_field(data: dict, key: str, kind: str) -> int:
    v = _require(data, key, kind)
    if not isinstance(v, int) or v < 1:
        raise DeviceFileError(f"{kind} field {key!r} must be a positive integer")
    return v


def _metadata(data: dict) -> dict:
    md = data.get("metadata", {})
    if not isinstance(md, dict):
        raise DeviceFileError("metadata must be an object")
    return md


def to_document(obj, metadata: dict | None = None) -> dict:
    """Encode a supported object as a JSON-ready document."""
    doc: dict[str, Any] = {"layout": "row-major", "metadata": metadata or {}}
    if isinstance(obj, Pid):
        d = obj.block_dim
        doc.update(
            kind="pid",
            din=obj.din,
            dout=obj.dout,
            n_programs=obj.n_programs,
            n_outcomes=obj.n_outcomes,
            blocks=[
                [_encode_matrix(obj.blocks[x0, x1]) for x1 in range(obj.n_outcomes)]
                for x0 in range(obj.n_programs)
            ],
        )
    elif isinstance(obj, Pmd):
        doc.update(
            kind="pmd",
            dim=obj.dim,
            n_programs=obj.n_programs,
            n_outcomes=obj.n_outcomes,
            effects=[
                [_encode_matrix(obj.effects[x0, x1]) for x1 in range(obj.n_outcomes)]
                for x0 in range(obj.n_programs)
            ],
        )
    elif isinstance(obj, Povm):
        doc.update(
            kind="povm",
            dim=obj.dim,
            n_outcomes=obj.n_outcomes,
            effects=[_encode_matrix(e) for e in obj.effects],
            factor_dims=list(obj.factor_dims) if obj.factor_dims else None,
        )
    elif isinstance(obj, Instrument):
        doc.update(
            kind="instrument",
            din=obj.din,
            dout=obj.dout,
            n_branches=obj.n_branches,
            branches=[_encode_matrix(b.mat) for b in obj.branches],
        )
    elif isinstance(obj, GameSpec):
        doc.update(
            kind="game",
            d_ref=obj.d_ref,
            dout=obj.dout,
            n_m=obj.n_m,
            n_n=obj.n_n,
            effects=[
                [_encode_matrix(obj.effects[m, n]) for n in range(obj.n_n)]
                for m in range(obj.n_m)
            ],
        )
    elif isinstance(obj, PiGameSpec):
        doc.update(
            kind="pigame",
            din=obj.din,
            n_m=obj.n_m,
            n_n=obj.n_n,
            n_l=obj.n_l,
            ensemble=[
                [
                    [_encode_matrix(obj.ensemble[m, n, l]) for l in range(obj.n_l)]
                    for n in range(obj.n_n)
                ]
                for m in range(obj.n_m)
            ],
            povm_l=to_document(obj.povm_l),
        )
    elif isinstance(obj, FreeSimulation):
        s = obj.shape
        doc.update(
            kind="simulation",
            shape={k: getattr(s, k) for k in s.__dataclass_fields__},
            pre=_encode_matrix(obj.pre.mat),
            post=[_encode_matrix(b.mat) for b in obj.post.branches],
            p_table=[[float(v) for v in row] for row in obj.p_cc.table],
            q_table=[[float(v) for v in row] for row in obj.q_cc.table],
        )
    else:
        raise TypeError(f"cannot serialize objects of type {type(obj).__name__}")
    return doc


def from_document(data: dict):
    """Decode a document; raises :class:`DeviceFileError` on any schema problem."""
    if not isinstance(data, dict):
        raise DeviceFileError("device file must hold a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise DeviceFileError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if data.get("layout", "row-major") != "row-major":
        raise DeviceFileError("only row-major layout is supported")
    _metadata(data)
    if kind == "pid":
        din = _int_field(data, "din", kind)
        dout = _int_field(data, "dout", kind)
        n0 = _int_field(data, "n_programs", kind)
        n1 = _int_field(data, "n_outcomes", kind)
        blocks = _decode_matrices(_require(data, "blocks", kind), (n0, n1), din * dout, "blocks")
        return Pid(din, dout, blocks)
    if kind == "pmd":
        dim = _int_field(data, "dim", kind)
        n0 = _int_field(data, "n_programs", kind)
        n1 = _int_field(data, "n_outcomes", kind)
        return Pmd(_decode_matrices(_require(data, "effects", kind), (n0, n1), dim, "effects"))
    if kind == "povm":
        dim = _int_field(data, "dim", kind)
        n = _int_field(data, "n_outcomes", kind)
        eff = _decode_matrices(_require(data, "effects", kind), (n,), dim, "effects")
        fd = data.get("factor_dims")
        if fd is not None and not (
            isinstance(fd, list)
            and all(isinstance(f, int) and f >= 1 for f in fd)
            and int(np.prod(fd)) == dim
        ):
            raise DeviceFileError(
                f"povm field 'factor_dims' must be null or positive integers multiplying to {dim}"
            )
        return Povm(eff, factor_dims=tuple(fd) if fd else None)
    if kind == "instrument":
        din = _int_field(data, "din", kind)
        dout = _int_field(data, "dout", kind)
        nb = _int_field(data, "n_branches", kind)
        branches = _decode_matrices(_require(data, "branches", kind), (nb,), din * dout, "branches")
        return Instrument(tuple(ChoiMatrix(din, dout, b) for b in branches))
    if kind == "game":
        d_ref = _int_field(data, "d_ref", kind)
        dout = _int_field(data, "dout", kind)
        n_m = _int_field(data, "n_m", kind)
        n_n = _int_field(data, "n_n", kind)
        eff = _decode_matrices(_require(data, "effects", kind), (n_m, n_n), d_ref * dout, "effects")
        return GameSpec(effects=eff, d_ref=d_ref, dout=dout)
    if kind == "pigame":
        din = _int_field(data, "din", kind)
        n_m = _int_field(data, "n_m", kind)
        n_n = _int_field(data, "n_n", kind)
        n_l = _int_field(data, "n_l", kind)
        ens = _decode_matrices(_require(data, "ensemble", kind), (n_m, n_n, n_l), din, "ensemble")
        povm = from_document(_require(data, "povm_l", kind))
        if not isinstance(povm, Povm):
            raise DeviceFileError("pigame field 'povm_l' must hold a povm document")
        return PiGameSpec(ensemble=ens, povm_l=povm)
    # simulation
    shape_raw = _require(data, "shape", kind)
    if not isinstance(shape_raw, dict):
        raise DeviceFileError("simulation field 'shape' must be an object")
    sizes = {k: _int_field(shape_raw, k, "simulation shape") for k in shape_raw}
    try:
        shape = SimulationShape(**sizes)
    except TypeError as exc:
        raise DeviceFileError(f"bad simulation shape: {exc}") from exc
    d_pre = shape.target_din * shape.source_din * shape.side_dim
    pre = ChoiMatrix(
        shape.target_din,
        shape.source_din * shape.side_dim,
        _decode_matrices(_require(data, "pre", kind), (), d_pre, "pre"),
    )
    d_post = shape.source_dout * shape.side_dim * shape.target_dout
    branches = _decode_matrices(_require(data, "post", kind), (shape.n_branches,), d_post, "post")
    d_mid = shape.source_dout * shape.side_dim
    post = Instrument(tuple(ChoiMatrix(d_mid, shape.target_dout, b) for b in branches))
    tables = []
    for key in ("p_table", "q_table"):
        raw = _require(data, key, kind)
        try:
            tables.append(ClassicalChannel(np.asarray(raw, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise DeviceFileError(f"{kind} field {key!r}: {exc}") from exc
    try:
        return FreeSimulation(shape=shape, pre=pre, post=post, p_cc=tables[0], q_cc=tables[1])
    except ValueError as exc:
        raise DeviceFileError(str(exc)) from exc


def dumps(obj, metadata: dict | None = None) -> str:
    return json.dumps(to_document(obj, metadata), indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeviceFileError(f"not valid JSON: {exc}") from exc
    return from_document(data)


def write_device(path: str, obj, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, metadata))


def read_device(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
