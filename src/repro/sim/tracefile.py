"""Trace file I/O: save and load program traces.

Format: one JSON object per line (JSONL).  The first line is a header
``{"repro-trace": 1, "threads": N}``; every other line is one operation
``{"t": thread, "k": kind, "a": addr, "s": size, "v": value, "c": cycles}``
with zero-valued fields omitted.  The format is deliberately plain so
traces can be produced or consumed by external tools (or hand-written for
directed experiments).  The loaders validate every field and raise
:class:`TraceFormatError` naming the offending line.

IR programs (:class:`repro.opt.ir.Program` — e.g. optimizer output) are
written in the same format by :func:`save_program`, with two extra per-op
fields carrying the IR metadata: ``"p"`` (provenance origin) and ``"d"``
(durable location), plus an optional ``"program"`` name in the header.
:func:`load_trace` ignores the extra fields, so an optimized program file
is also a valid executable trace file.  Every field is emitted in a fixed
order with defaults omitted, so equal programs save byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp

FORMAT_VERSION = 1

_KIND_CODES = {
    OpKind.LOAD: "L",
    OpKind.STORE: "S",
    OpKind.FLUSH: "F",
    OpKind.FENCE: "B",   # barrier
    OpKind.COMPUTE: "C",
    OpKind.EPOCH: "E",
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

#: Integer op fields: (key, default, minimum or None for unbounded).
_INT_FIELDS = (("a", 0, 0), ("s", 8, 1), ("v", 0, None), ("c", 0, 0))


class TraceFormatError(ValueError):
    """The file is not a valid repro trace."""


def _encode_op(thread: int, op, origin: str = "",
               durable: bool = False) -> str:
    """One op line; ``origin``/``durable`` are the IR metadata fields."""
    record = {"t": thread, "k": _KIND_CODES[op.kind]}
    if op.addr:
        record["a"] = op.addr
    if op.size != 8:
        record["s"] = op.size
    if op.value:
        record["v"] = op.value
    if op.cycles:
        record["c"] = op.cycles
    if op.tag:
        record["g"] = op.tag
    if origin:
        record["p"] = origin
    if durable:
        record["d"] = 1
    return json.dumps(record, separators=(",", ":"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_op(line_no: int, record: dict) -> TraceOp:
    try:
        kind = _CODE_KINDS[record.get("k")]
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"line {line_no}: unknown op kind {record.get('k')!r}") from exc
    fields = {}
    for key, default, minimum in _INT_FIELDS:
        value = record.get(key, default)
        if not _is_int(value) or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise TraceFormatError(
                f"line {line_no}: field {key!r} must be an integer{bound}, "
                f"got {value!r}")
        fields[key] = value
    tag = record.get("g")
    if tag is not None and not isinstance(tag, str):
        raise TraceFormatError(
            f"line {line_no}: field 'g' must be a string, got {tag!r}")
    return TraceOp(kind, addr=fields["a"], size=fields["s"],
                   value=fields["v"], cycles=fields["c"], tag=tag)


def save_trace(trace: ProgramTrace, path: Union[str, Path]) -> int:
    """Write ``trace`` to ``path``; returns the number of ops written."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        header = {"repro-trace": FORMAT_VERSION, "threads": trace.num_threads}
        fh.write(json.dumps(header) + "\n")
        for thread_id, thread in enumerate(trace.threads):
            for op in thread:
                fh.write(_encode_op(thread_id, op) + "\n")
                count += 1
    return count


def save_program(program, path: Union[str, Path]) -> int:
    """Write an IR :class:`~repro.opt.ir.Program` with its provenance and
    durability metadata; returns the number of ops written.  The file is
    loadable by :func:`load_trace` (metadata fields are ignored there)."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        header = {"repro-trace": FORMAT_VERSION,
                  "threads": program.num_threads}
        if program.name:
            header["program"] = program.name
        fh.write(json.dumps(header) + "\n")
        for thread_id, ops in enumerate(program.threads):
            for op in ops:
                fh.write(_encode_op(thread_id, op, op.origin, op.durable)
                         + "\n")
                count += 1
    return count


def _load_records(path: Path):
    """Yield ``(line_no, record)`` for every op line, after validating the
    header; the first yield is ``(0, num_threads)``."""
    with path.open() as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError("missing/invalid trace header") from exc
        if not isinstance(header, dict):
            raise TraceFormatError("missing/invalid trace header")
        if header.get("repro-trace") != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace version {header.get('repro-trace')!r}"
            )
        num_threads = header.get("threads")
        if not _is_int(num_threads) or num_threads < 1:
            raise TraceFormatError(f"bad thread count {num_threads!r}")
        yield 0, num_threads
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {line_no}: invalid JSON") from exc
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"line {line_no}: an op must be a JSON object")
            thread_id = record.get("t", 0)
            if not _is_int(thread_id):
                raise TraceFormatError(
                    f"line {line_no}: thread {thread_id!r} is not an integer")
            if not 0 <= thread_id < num_threads:
                raise TraceFormatError(
                    f"line {line_no}: thread {thread_id} out of range"
                )
            yield line_no, record


def load_trace(path: Union[str, Path]) -> ProgramTrace:
    """Read a trace written by :func:`save_trace`."""
    records = _load_records(Path(path))
    _, num_threads = next(records)
    threads: List[ThreadTrace] = [ThreadTrace() for _ in range(num_threads)]
    for line_no, record in records:
        threads[record.get("t", 0)].append(_decode_op(line_no, record))
    return ProgramTrace(threads)

