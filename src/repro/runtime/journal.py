"""Crash-consistent JSONL run journals.

A journal is an append-only file of JSON records, one per line.  Every
append writes the full line, flushes, and ``fsync``\\ s before returning,
so after a crash (process kill, power loss on a journalling filesystem)
the file contains every acknowledged record plus at most one torn final
line.  The reader tolerates exactly that failure mode: a partial or
corrupt *final* line is discarded, while corruption anywhere earlier
raises :class:`~repro.errors.ResumeError` (the journal cannot be
trusted).

Records are schema-versioned and sequence-numbered::

    {"v": 1, "seq": 0, "kind": "batch_start", ...}
    {"v": 1, "seq": 1, "kind": "task_result", "index": 0, ...}

``v`` guards against readers from a different schema generation; ``seq``
must increase by one per record, which catches truncation in the middle
of a journal (e.g. a copy that lost a block) that would otherwise look
like a clean prefix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ResumeError, ValidationError
from ..obs.context import active_metrics

__all__ = [
    "SCHEMA_VERSION", "Journal", "JournalLike", "read_journal",
    "record_field", "record_index",
]

#: Version written into every record; bumped on incompatible layout changes.
SCHEMA_VERSION = 1

Record = Dict[str, object]
PathLike = Union[str, "os.PathLike[str]"]


class Journal:
    """Append-only JSONL journal with per-record durability.

    Parameters
    ----------
    path:
        Journal file; created (with parent directories) when missing.
    fsync:
        When True (the default) every append is fsynced before the call
        returns — the crash-consistency guarantee.  Tests that create
        thousands of journals may disable it.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "run.jsonl")
    >>> with Journal(path) as journal:
    ...     _ = journal.append("batch_start", phase="demo", total=1)
    ...     _ = journal.append("task_result", index=0, value=0.5)
    >>> [record["kind"] for record in read_journal(path)]
    ['batch_start', 'task_result']
    """

    def __init__(self, path: PathLike, fsync: bool = True):
        self._path = Path(path)
        self._fsync = bool(fsync)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # Continue the sequence when appending to an existing journal,
        # first truncating any torn final line — appending after a torn
        # tail would weld the new record onto the partial one and corrupt
        # the journal *mid-file*, which readers rightly refuse.
        if self._path.exists():
            self._repair_torn_tail()
            self._seq = len(read_journal(self._path, missing_ok=True))
        else:
            self._seq = 0
        self._file = open(self._path, "a", encoding="utf-8")
        self._metrics = active_metrics()

    def _repair_torn_tail(self) -> None:
        """Truncate the file to its durable prefix of complete records."""
        raw = self._path.read_bytes()
        durable = _durable_prefix(raw)
        if durable < len(raw):
            with open(self._path, "r+b") as handle:
                handle.truncate(durable)
            if self._fsync:
                with open(self._path, "rb") as handle:
                    os.fsync(handle.fileno())

    @property
    def path(self) -> Path:
        return self._path

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will carry."""
        return self._seq

    def append(self, kind: str, **fields) -> Record:
        """Durably append one record; returns the record as written.

        ``v``, ``seq``, and ``kind`` are reserved keys managed by the
        journal; passing them in *fields* raises
        :class:`~repro.errors.ValidationError`.
        """
        if self._file.closed:
            raise ResumeError(f"journal {self._path} is closed")
        reserved = {"v", "seq", "kind"} & set(fields)
        if reserved:
            raise ValidationError(
                f"record fields {sorted(reserved)} are reserved journal keys"
            )
        record: Record = {"v": SCHEMA_VERSION, "seq": self._seq, "kind": kind}
        record.update(fields)
        line = json.dumps(record, sort_keys=False, separators=(",", ":"))
        self._file.write(line + "\n")
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        if self._metrics is not None:
            self._metrics.counter(
                "journal_records",
                help="Records durably appended to run journals.",
            ).inc()
            self._metrics.counter(
                "journal_bytes",
                help="Payload bytes appended to run journals.",
            ).inc(len(line) + 1)
            if self._fsync:
                self._metrics.counter(
                    "journal_fsyncs",
                    help="fsync calls issued by journal appends.",
                ).inc()
        self._seq += 1
        return record

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Journal({str(self._path)!r}, records={self._seq})"


#: A journal, or the path of one to open.
JournalLike = Union[Journal, str, Path]


def _durable_prefix(raw: bytes) -> int:
    """Byte length of the longest prefix of complete, parsable lines.

    Walks *raw* line by line (newlines kept) and stops at the first line
    that is not newline-terminated or does not parse as JSON — the torn
    tail a crash can leave.  Blank lines are tolerated, matching
    :func:`read_journal`.
    """
    end = 0
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        stripped = line.strip()
        if stripped:
            try:
                json.loads(stripped.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                break
        end += len(line)
    return end


def read_journal(path: PathLike, missing_ok: bool = False) -> List[Record]:
    """Read a journal, tolerating a torn final line.

    Returns the list of records.  A missing or empty file raises
    :class:`~repro.errors.ResumeError` naming the path — resuming from a
    journal that was never written is almost always a mistyped path, and
    silently treating it as "no progress" would rerun a whole campaign.
    Pass ``missing_ok=True`` to read such a file as the empty journal
    (the writer-side convention: a campaign interrupted before its first
    durable append).

    Raises
    ------
    ResumeError
        When the file is missing or empty (unless ``missing_ok``), when
        a record before the final line is unparsable, when schema
        versions don't match :data:`SCHEMA_VERSION`, or when sequence
        numbers are not the contiguous run ``0, 1, 2, ...``.
    """
    path = Path(path)
    if not path.exists():
        if missing_ok:
            return []
        raise ResumeError(
            f"journal {path} does not exist; nothing to resume"
        )
    raw = path.read_text(encoding="utf-8")
    if not raw.strip() and not missing_ok:
        raise ResumeError(
            f"journal {path} is empty; nothing to resume"
        )
    lines = raw.split("\n")
    # A well-formed journal ends with "\n", leaving one empty trailing
    # element; anything else on the last element is a torn write.
    torn_tail = lines.pop() if lines else ""
    records: List[Record] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines) - 1 and not torn_tail:
                # Corrupt final *complete* line: a torn write where the
                # newline made it to disk but part of the payload did not
                # (possible on non-atomic sector boundaries).  Still
                # recoverable — everything before it is intact.
                break
            raise ResumeError(
                f"journal {path} is corrupt at line {lineno + 1}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ResumeError(
                f"journal {path} line {lineno + 1} is not a JSON object"
            )
        records.append(record)
    _validate_schema(records, path)
    return records


def _validate_schema(records: Iterable[Record], path: Path) -> None:
    for position, record in enumerate(records):
        version = record.get("v")
        if version != SCHEMA_VERSION:
            raise ResumeError(
                f"journal {path} record {position} has schema version "
                f"{version!r}; this reader understands {SCHEMA_VERSION}"
            )
        if record.get("seq") != position:
            raise ResumeError(
                f"journal {path} record {position} carries seq "
                f"{record.get('seq')!r}; the journal is missing records"
            )
        if not isinstance(record.get("kind"), str):
            raise ResumeError(
                f"journal {path} record {position} has no 'kind'"
            )


#: The JSON types a record field may hold for each requested Python type:
#: exact types, so a bool never passes for an int and 0.7 never for one.
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), dict: (dict,)}


def record_field(
    record: Record, name: str, kind: type, path: PathLike,
    low: Optional[int] = None,
):
    """Field *name* of journal *record* as *kind*: float, int, str or dict.

    A journal is outside input once it is resumed, so a missing field,
    a value of the wrong JSON type, or an ``int`` below *low* raises a
    one-line :class:`~repro.errors.ResumeError` naming the field.
    """
    kind_name = record.get("kind")
    if name not in record:
        raise ResumeError(
            f"journal {path} {kind_name} record has no {name!r} field"
        )
    value = record[name]
    if type(value) not in _JSON_TYPES[kind] or (
        low is not None and value < low
    ):
        expected = f"a JSON {kind.__name__}"
        if low is not None:
            expected += f" >= {low}"
        raise ResumeError(
            f"journal {path} {kind_name} record field {name!r} must be "
            f"{expected}, got {value!r}"
        )
    return kind(value)


def record_index(record: Record, total: int, path: PathLike) -> int:
    """The ``index`` of one journaled item of a *total*-item run.

    Only a JSON integer in ``0..total-1`` names an item (bool is an int
    subclass, and 0.7 must not silently become item 0); anything else
    raises a one-line :class:`~repro.errors.ResumeError`.
    """
    index = record.get("index")
    if type(index) is not int or not 0 <= index < total:
        raise ResumeError(
            f"journal {path} holds a {record.get('kind')} with index "
            f"{index!r}, not an integer in 0..{total - 1}"
        )
    return index
