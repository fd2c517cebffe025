"""`RatingsWAL`: a crash-safe write-ahead log for streamed ratings.

Every rating that enters the system is made durable *before* it is
acknowledged: the record is appended to the active segment, the segment
file is fsynced, and only then does :meth:`RatingsWAL.append` return the
record's sequence number.  The fold-in pipeline
(:class:`repro.streaming.IngestEngine`) is free to crash at any point
after that — replaying the log reproduces the exact stream, and the
**barrier** records it writes at every apply boundary make the replay
reproduce the exact *batching* too, which is what the kill-replay
bit-identity drill leans on.

On-disk format (all little-endian), one ``wal-NNNNNN.log`` file per
segment:

* an 8-byte segment header ``b"RWAL" + <u32 version>``;
* records of ``<u32 payload_len> payload <u32 crc32(payload)>``, with
  ``payload = <i64 seq> <i32 kind> <i32 user> <i32 item> <f32 rating>``.

The length prefix + per-record CRC give recovery the property the ISSUE
asks for: a **torn tail** (power loss mid-append leaves a prefix of a
record, or a record whose bytes never all hit disk) is detected and
truncated away exactly — every record before the tear survives, the torn
record is dropped, and the log is append-ready again.  A CRC/structure
failure anywhere *other* than the final segment's tail is not a torn
write but corruption, and raises :class:`WalError` instead of silently
dropping data.

Segments rotate after ``segment_records`` appends; rotation fsyncs the
old segment, the new segment's header, and the directory entry
(:func:`repro.resilience.atomicio.fsync_directory`), so a crash between
rotation steps still recovers cleanly.  :meth:`truncate_through` deletes
whole segments made redundant by a corpus snapshot at compaction time
(:mod:`repro.streaming.delta`) — never the active tail.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass

from ..resilience.atomicio import fsync_directory

__all__ = ["RatingsWAL", "WalError", "WalRecord", "WAL_VERSION"]

WAL_VERSION = 1

_MAGIC = b"RWAL"
_HEADER = _MAGIC + struct.pack("<I", WAL_VERSION)
_PAYLOAD = struct.Struct("<qiiif")  # seq, kind, user, item, rating (f32 pad-free)
_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")
_NAME_RE = re.compile(r"^wal-(\d{6})\.log$")

#: Record kinds.  ``barrier`` marks an apply boundary: replay re-runs the
#: fold-in exactly where the original run did, so factor state is a pure
#: function of the log.
KIND_RATING = 0
KIND_BARRIER = 1
_KIND_NAMES = {KIND_RATING: "rating", KIND_BARRIER: "barrier"}


class WalError(ValueError):
    """The log is corrupt beyond what torn-tail recovery may repair."""


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry (plain data)."""

    seq: int
    kind: str  # "rating" | "barrier"
    user: int = -1
    item: int = -1
    rating: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("rating", "barrier"):
            raise WalError(f"unknown WAL record kind {self.kind!r}")
        if self.seq < 0:
            raise WalError("seq must be non-negative")


def _encode(record: WalRecord) -> bytes:
    kind = KIND_BARRIER if record.kind == "barrier" else KIND_RATING
    payload = _PAYLOAD.pack(
        record.seq, kind, record.user, record.item, float(record.rating)
    )
    return _LEN.pack(len(payload)) + payload + _CRC.pack(zlib.crc32(payload))


def _segment_path(directory: str, ordinal: int) -> str:
    return os.path.join(directory, f"wal-{ordinal:06d}.log")


def _scan_segment(path: str, *, final: bool) -> tuple[list[WalRecord], int]:
    """Parse one segment; returns ``(records, good_bytes)``.

    ``good_bytes`` is the offset of the first unparseable byte (file size
    when the segment is fully intact).  In the *final* segment a bad or
    incomplete trailing record is a torn tail — scanning stops and the
    caller truncates to ``good_bytes``.  In any earlier segment the same
    condition is interior corruption and raises :class:`WalError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_HEADER) or blob[: len(_MAGIC)] != _MAGIC:
        if final and len(blob) < len(_HEADER):
            # Crash between creating the file and fsyncing its header.
            return [], 0
        raise WalError(f"{path!r}: bad segment header")
    (version,) = _LEN.unpack_from(blob, len(_MAGIC))
    if version != WAL_VERSION:
        raise WalError(f"{path!r}: unsupported WAL version {version}")
    records: list[WalRecord] = []
    off = len(_HEADER)
    while off < len(blob):
        good = off
        if off + _LEN.size > len(blob):
            break  # torn length prefix
        (length,) = _LEN.unpack_from(blob, off)
        off += _LEN.size
        if length != _PAYLOAD.size:
            off = good
            break  # torn/garbage length
        if off + length + _CRC.size > len(blob):
            off = good
            break  # torn payload or checksum
        payload = blob[off : off + length]
        off += length
        (crc,) = _CRC.unpack_from(blob, off)
        off += _CRC.size
        if zlib.crc32(payload) != crc:
            off = good
            break  # torn write caught by the checksum
        seq, kind, user, item, rating = _PAYLOAD.unpack(payload)
        if kind not in _KIND_NAMES:
            off = good
            break
        records.append(
            WalRecord(
                seq=seq,
                kind=_KIND_NAMES[kind],
                user=user,
                item=item,
                rating=rating,
            )
        )
    if off < len(blob) and not final:
        raise WalError(
            f"{path!r}: corrupt record at offset {off} in a non-final "
            "segment (torn-tail recovery only repairs the last segment)"
        )
    return records, off


class RatingsWAL:
    """Append-only, segment-rotated, checksummed rating log."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        segment_records: int = 1024,
        sync: bool = True,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.directory = os.fspath(directory)
        self.segment_records = int(segment_records)
        self.sync = bool(sync)
        os.makedirs(self.directory, exist_ok=True)
        self.truncated_bytes = 0  # torn bytes dropped by the last recovery
        self._fh = None
        self._records_in_segment = 0
        self._ordinal = 0
        self.last_seq = -1
        self._recover()

    # -- recovery -----------------------------------------------------------

    def _segment_ordinals(self) -> list[int]:
        found = []
        for name in os.listdir(self.directory):
            match = _NAME_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _recover(self) -> None:
        """Scan all segments, truncate a torn tail, re-open for append."""
        ordinals = self._segment_ordinals()
        self.truncated_bytes = 0
        last_seq = -1
        records_in_last = 0
        for i, ordinal in enumerate(ordinals):
            final = i == len(ordinals) - 1
            path = _segment_path(self.directory, ordinal)
            records, good = _scan_segment(path, final=final)
            for rec in records:
                if rec.seq != last_seq + 1:
                    raise WalError(
                        f"{path!r}: sequence gap (got {rec.seq}, "
                        f"want {last_seq + 1})"
                    )
                last_seq = rec.seq
            if final:
                size = os.path.getsize(path)
                if good < size:
                    self.truncated_bytes = size - good
                    # A file torn inside its header truncates to empty and
                    # gets a fresh header below; never extend with zeros.
                    keep = good if good >= len(_HEADER) else 0
                    with open(path, "r+b") as fh:
                        fh.truncate(keep)
                        fh.flush()
                        os.fsync(fh.fileno())
                records_in_last = len(records)
        self.last_seq = last_seq
        if not ordinals:
            self._ordinal = 0
            self._open_segment(0)
        else:
            self._ordinal = ordinals[-1]
            self._records_in_segment = records_in_last
            path = _segment_path(self.directory, self._ordinal)
            empty = os.path.getsize(path) == 0
            self._fh = open(path, "r+b" if not empty else "wb")
            if empty:
                # Recovery found a headerless file (crash pre-header).
                self._fh.write(_HEADER)
                self._flush()
            else:
                self._fh.seek(0, os.SEEK_END)

    def _open_segment(self, ordinal: int) -> None:
        path = _segment_path(self.directory, ordinal)
        self._fh = open(path, "wb")
        self._fh.write(_HEADER)
        self._flush()
        fsync_directory(self.directory)
        self._records_in_segment = 0
        self._ordinal = ordinal

    def _flush(self) -> None:
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    # -- append path --------------------------------------------------------

    def _append_record(self, record: WalRecord) -> int:
        if self._fh is None:
            raise WalError("WAL is closed")
        if self._records_in_segment >= self.segment_records:
            self._flush()
            self._fh.close()
            self._open_segment(self._ordinal + 1)
        self._fh.write(_encode(record))
        self._flush()
        self._records_in_segment += 1
        self.last_seq = record.seq
        return record.seq

    def append(self, user: int, item: int, rating: float) -> int:
        """Durably append one rating; returns its sequence number.

        When this returns, the record is fsynced — the caller may ack.
        """
        return self._append_record(
            WalRecord(
                seq=self.last_seq + 1,
                kind="rating",
                user=int(user),
                item=int(item),
                rating=float(rating),
            )
        )

    def append_barrier(self) -> int:
        """Durably mark an apply boundary; returns its sequence number."""
        return self._append_record(
            WalRecord(seq=self.last_seq + 1, kind="barrier")
        )

    def append_torn(
        self, user: int, item: int, rating: float, *, keep_bytes: int = 7
    ) -> None:
        """Simulate a power loss mid-append (the wal-torn-write fault).

        Writes only the first ``keep_bytes`` of the encoded record, as a
        crash between ``write`` and ``fsync`` would leave on disk.  The
        record is **not** acked and ``last_seq`` does not advance; the
        caller must run :meth:`repair_tail` (or reopen the log) before
        appending again.
        """
        if self._fh is None:
            raise WalError("WAL is closed")
        blob = _encode(
            WalRecord(
                seq=self.last_seq + 1,
                kind="rating",
                user=int(user),
                item=int(item),
                rating=float(rating),
            )
        )
        keep = max(1, min(int(keep_bytes), len(blob) - 1))
        self._fh.write(blob[:keep])
        self._flush()

    def repair_tail(self) -> int:
        """Re-scan the active segment and truncate a torn tail in place.

        Returns the number of torn bytes dropped.  Equivalent to (but
        cheaper than) closing and re-opening the whole log.
        """
        if self._fh is None:
            raise WalError("WAL is closed")
        self._flush()
        self._fh.close()
        path = _segment_path(self.directory, self._ordinal)
        records, good = _scan_segment(path, final=True)
        size = os.path.getsize(path)
        torn = size - good
        if torn:
            keep = good if good >= len(_HEADER) else 0
            with open(path, "r+b") as fh:
                fh.truncate(keep)
                fh.flush()
                os.fsync(fh.fileno())
            self.truncated_bytes = torn
        self._records_in_segment = len(records)
        if os.path.getsize(path) == 0:
            self._fh = open(path, "wb")
            self._fh.write(_HEADER)
            self._flush()
        else:
            self._fh = open(path, "r+b")
            self._fh.seek(0, os.SEEK_END)
        return torn

    # -- read path ----------------------------------------------------------

    def replay(self) -> list[WalRecord]:
        """All durable records, in sequence order, re-read from disk."""
        if self._fh is not None:
            self._flush()
        ordinals = self._segment_ordinals()
        records: list[WalRecord] = []
        for i, ordinal in enumerate(ordinals):
            path = _segment_path(self.directory, ordinal)
            segment, _good = _scan_segment(path, final=i == len(ordinals) - 1)
            records.extend(segment)
        return records

    # -- retention ----------------------------------------------------------

    def truncate_through(self, seq: int) -> list[str]:
        """Delete whole segments whose every record has ``seq <= seq``.

        The active segment is never deleted.  Only safe once a corpus
        snapshot covering ``seq`` is durable (compaction does this);
        returns the deleted paths.
        """
        deleted = []
        ordinals = self._segment_ordinals()
        for ordinal in ordinals:
            if ordinal == self._ordinal:
                continue
            path = _segment_path(self.directory, ordinal)
            records, _good = _scan_segment(path, final=False)
            if records and records[-1].seq > seq:
                continue
            os.unlink(path)
            deleted.append(path)
        if deleted:
            fsync_directory(self.directory)
        return deleted

    def close(self) -> None:
        if self._fh is not None:
            self._flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RatingsWAL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
