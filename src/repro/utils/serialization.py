"""File-writing helpers shared by the persistence layers.

:func:`atomic_write_bytes` writes to a temporary file in the destination
directory, fsyncs and renames, so a crash mid-write never leaves a
truncated file under the final name; checkpoint snapshots
(:mod:`repro.checkpoint`), service state and trace files all go through
it.  :func:`save_jsonl` / :func:`load_jsonl` are the telemetry
subsystem's one-object-per-line interchange format.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["atomic_write_bytes", "save_jsonl", "load_jsonl"]


def atomic_write_bytes(path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically (tmp file + fsync + rename).

    The destination only ever holds either its previous contents or the
    complete new payload — never a partial write.  Returns ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def save_jsonl(path, records, *, append: bool = False) -> None:
    """Write an iterable of JSON-serialisable dicts as one-object-per-line.

    JSONL is the interchange format of the telemetry subsystem
    (:mod:`repro.telemetry.export`): it streams, appends cheaply and is
    greppable.  ``append=True`` adds to an existing file instead of
    truncating it.
    """
    path = Path(path)
    mode = "a" if append else "w"
    with path.open(mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")


def load_jsonl(path) -> list[dict]:
    """Read a JSONL file back into a list of dicts (blank lines skipped)."""
    path = Path(path)
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSONL line: {exc}") from exc
    return records
