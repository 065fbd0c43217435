"""Durable file output helpers.

Reports (bench JSON, ``run --json --out``, fault-campaign reports) are the
artifacts other tooling consumes; a crash or SIGKILL mid-write must never
leave a truncated file where a previous good one stood.  The standard
recipe: write to a temporary file in the *same directory* (so the rename
cannot cross filesystems), fsync it, then :func:`os.replace` it over the
destination — readers see either the old complete file or the new complete
file, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Mapping, Sequence


def atomic_write_text(path: str, text: str) -> str:
    """Atomically replace ``path`` with ``text``; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: str, obj: Any, indent: int = 2, sort_keys: bool = True
) -> str:
    """Atomically replace ``path`` with ``obj`` serialized as JSON (with a
    trailing newline); returns ``path``."""
    return atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    )


class ArtifactError(ValueError):
    """A report/counterexample artifact could not be loaded: the file is
    missing, truncated, not JSON, or carries the wrong schema/kind.

    Replay paths raise this *before* touching any payload field, so the
    CLI can print one clear diagnostic instead of a deserialization
    traceback from deep inside a replayer.  A :class:`ValueError`
    subclass: callers predating the envelope validation caught
    ``ValueError`` and keep working."""


def load_versioned_json(
    path: str, expected_schema: str, *, kind: str | None = None
) -> Any:
    """Load a versioned JSON artifact, validating its envelope first.

    Checks — in order, each with a diagnostic naming the file — that the
    file exists and parses as JSON (a truncated atomic write surfaces
    here), that it is a JSON object carrying a ``schema`` field equal to
    ``expected_schema``, and (when ``kind`` is given) that its ``kind``
    field matches.  Returns the decoded object; raises
    :class:`ArtifactError` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        detail = "file is empty" if not raw.strip() else str(exc)
        raise ArtifactError(
            f"artifact {path!r} is not valid JSON ({detail}); the file may "
            f"be truncated — re-generate it rather than replaying"
        ) from exc
    if not isinstance(obj, dict):
        raise ArtifactError(
            f"artifact {path!r} is JSON but not an object "
            f"(got {type(obj).__name__}); expected a versioned report with "
            f"a 'schema' field"
        )
    schema = obj.get("schema")
    if schema != expected_schema:
        have = repr(schema) if schema is not None else "no 'schema' field"
        raise ArtifactError(
            f"artifact {path!r} has {have}; expected schema "
            f"{expected_schema!r} — it was written by a different tool or "
            f"version and cannot be replayed here"
        )
    if kind is not None and obj.get("kind") != kind:
        have_kind = obj.get("kind")
        have = repr(have_kind) if have_kind is not None else "no 'kind' field"
        raise ArtifactError(
            f"artifact {path!r} has {have}; expected kind {kind!r}"
        )
    return obj


def require_fields(path: str, obj: Any, fields: Sequence[str],
                   where: str = "") -> None:
    """Raise :class:`ArtifactError` naming the first of ``fields`` that the
    payload object ``obj`` of artifact ``path`` lacks; ``where`` locates
    ``obj`` inside the artifact (e.g. ``"ops[3]"``).  Replay paths call
    this before any simulation, so a malformed payload is a usage error
    rather than a ``KeyError`` from deep inside a replayer."""
    at = f" {where}" if where else ""
    for name in fields:
        if not isinstance(obj, dict) or name not in obj:
            raise ArtifactError(
                f"artifact {path!r}{at} has no {name!r} field")


def require_types(path: str, obj: Any, types: Mapping[str, Any],
                  where: str = "") -> None:
    """:func:`require_fields` for the keys of ``types``, then raise
    :class:`ArtifactError` naming the first field whose value is not of
    its type (a type or a tuple of types, as :func:`isinstance` takes;
    ``type(None)`` admits a JSON ``null``)."""
    require_fields(path, obj, tuple(types), where)
    at = f" {where}" if where else ""
    for name, kind in types.items():
        if not isinstance(obj[name], kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise ArtifactError(
                f"artifact {path!r}{at} field {name!r} is "
                f"{_json_type(type(obj[name]))}, not "
                f"{' or '.join(map(_json_type, kinds))}")


def _json_type(kind: type) -> str:
    return "null" if kind is type(None) else kind.__name__
