"""Write-ahead journal with CRC-framed records.

The durability primitive under :class:`repro.durable.DurableStore`:
an append-only log whose records survive SIGKILL at any byte
boundary.  Frame format, after an 8-byte magic header::

    [u32 length (big-endian)] [u32 crc32(payload)] [payload bytes]

Durability contract:

- **fsync-on-commit** — :meth:`WriteAheadLog.append` returns only
  after the frame is flushed and ``fsync``\\ ed, so a record that was
  appended is a record that survives a crash.  ``sync=False`` keeps
  the flush and skips the fsync: the record survives process death
  (the page cache belongs to the OS) and is readable as soon as the
  call returns, but not a kernel crash or power loss.
  :meth:`WriteAheadLog.append_many` is the group commit for callers
  that hold a whole batch: one ``write`` and one ``fsync`` for every
  frame in it.  A crash mid-batch leaves a torn prefix of the batch —
  the whole frames before the tear are committed, exactly as if they
  had been appended one at a time.
- **torn-tail truncation on open** — a crash mid-append leaves a
  partial frame (short header, short payload, or CRC mismatch) at the
  tail.  Opening the log scans it, keeps the longest valid prefix,
  and truncates the torn bytes; the lost record was never committed,
  so dropping it is correct.
- **rotation by truncation** — :meth:`rotate` empties the journal in
  place, truncating it to its magic header (and fsyncing it when
  ``sync=True``); it runs after a snapshot makes the old records
  obsolete.  Every crash state is safe.  Before the truncate, the old
  records carry steps at or below the snapshot's, so recovery skips
  them.  After it, the journal is empty.  A size the disk recorded
  only in part (power loss without the fsync) ends mid-frame, and
  the open scan cuts that frame like any torn tail.

Payloads are opaque bytes; callers (``DurableStore``) bring their own
serialization.  Everything after a bad frame is discarded — with
length-prefix framing there is no reliable way to resynchronize past
a corrupt length field, and a committed record is by construction
followed only by later commits, so mid-file corruption means the
medium (not a crash) damaged the log.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator, List, Union

#: file magic: identifies a repro WAL and its framing version
MAGIC = b"RPROWAL1"

_HEADER = struct.Struct(">II")  # length, crc32


def _fsync_dir(path: Path) -> None:
    """fsync the directory entry so a rename/create survives a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frames(fh) -> Iterator[bytes]:
    """Committed payloads of the WAL open on *fh*, read past its magic.

    The one frame scanner, shared by :func:`read_records` and the open
    scan of :class:`WriteAheadLog`.  The first bad frame ends the
    committed prefix: a short header, a CRC mismatch, or a declared
    length that exceeds the bytes left in the file — a torn payload,
    or a bit-rotted length field, which is never handed to ``read`` as
    a request size (one flipped high byte would otherwise become a
    multi-GiB up-front allocation).
    """
    end = fh.tell()
    size = os.fstat(fh.fileno()).st_size
    while True:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return
        length, crc = _HEADER.unpack(header)
        end += _HEADER.size + length
        if end > size:
            # a live writer may have appended since the last look
            size = os.fstat(fh.fileno()).st_size
            if end > size:
                return
        payload = fh.read(length)
        if len(payload) < length \
                or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return
        yield payload


def read_records(path: Union[str, Path]) -> Iterator[bytes]:
    """Yield the committed payloads of the WAL at *path*, oldest first.

    Read-only: never opens the file for writing, never truncates a
    torn tail — a torn frame simply ends the iteration.  This is the
    scan every *reader* of a WAL-framed file must use: opening a
    :class:`WriteAheadLog` just to read would take an append handle
    and truncate torn bytes on disk, which corrupts a file another
    process is still appending to (live capture) and mutates traces a
    loader is only supposed to inspect.
    """
    with open(Path(path), "rb") as fh:
        if fh.read(len(MAGIC)) == MAGIC:
            yield from _frames(fh)


class WriteAheadLog:
    """Append-only CRC-framed journal (see module docstring)."""

    def __init__(self, path: Union[str, Path], sync: bool = True):
        self.path = Path(path)
        self.sync = sync
        #: bytes cut from a torn tail during the open scan (0 = clean)
        self.truncated_bytes = 0
        #: valid records found on disk at open
        self.records_on_open = 0
        self.appends = 0
        self.bytes_appended = 0
        #: ``appends`` at this handle's last fsync; :meth:`flush` skips
        #: the fsync when nothing was written since
        self._synced_appends = 0
        self._fh = None
        self._open_and_recover()

    # -- open / recovery ------------------------------------------------

    def _open_and_recover(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self._write_fresh()
        end, count, total = self._scan(self.path)
        self.truncated_bytes = total - end
        if end == 0:
            # no magic header (say, a crash between create and header
            # write): nothing is committed, so start the file over
            self._write_fresh()
        elif end < total:
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
                fh.flush()
                if self.sync:
                    os.fsync(fh.fileno())
        self.records_on_open = count
        self._fh = open(self.path, "ab")

    def _write_fresh(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(MAGIC)
            fh.flush()
            if self.sync:
                os.fsync(fh.fileno())
        if self.sync:
            _fsync_dir(self.path.parent)

    @staticmethod
    def _scan(path: Path) -> tuple:
        """``(last_valid_offset, n_records, file_size)`` for *path*.

        A file without the magic header (including an empty file from
        a crash between create and header write) is valid-to-offset 0,
        which the caller rewrites as a fresh, empty log.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(len(MAGIC)) != MAGIC:
                return 0, 0, size
            end, count = len(MAGIC), 0
            for payload in _frames(fh):
                end += _HEADER.size + len(payload)
                count += 1
            return end, count, size

    # -- append path ----------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Commit one record; durable on return when ``sync=True``."""
        if self._fh is None:
            raise RuntimeError("journal is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("WAL payloads are bytes")
        payload = bytes(payload)
        self._commit(_HEADER.pack(len(payload),
                                  zlib.crc32(payload) & 0xFFFFFFFF)
                     + payload, 1)

    def append_many(self, payloads: Iterable[bytes]) -> None:
        """Group-commit a batch of records; all durable on return when
        ``sync=True``.

        Frames are byte-identical to one :meth:`append` per payload,
        but the batch goes out as one ``write`` and one ``fsync``.
        Every payload is checked before any byte is written, so a bad
        one leaves the log untouched.
        """
        if self._fh is None:
            raise RuntimeError("journal is closed")
        parts = []  # header, payload, header, payload, ...
        for payload in payloads:
            if not isinstance(payload, (bytes, bytearray, memoryview)):
                raise TypeError("WAL payloads are bytes")
            payload = bytes(payload)
            parts.append(_HEADER.pack(len(payload),
                                      zlib.crc32(payload) & 0xFFFFFFFF))
            parts.append(payload)
        if parts:
            self._commit(b"".join(parts), len(parts) // 2)

    def _commit(self, frames: bytes, n: int) -> None:
        """Write *n* whole frames at once and flush them to the OS;
        with ``sync``, also fsync them."""
        fh = self._fh
        fh.write(frames)
        fh.flush()
        self.appends += n
        self.bytes_appended += len(frames)
        if self.sync:
            os.fsync(fh.fileno())
            self._synced_appends = self.appends

    def flush(self) -> None:
        """Push buffered frames to the OS; with ``sync``, also fsync
        any frame this handle wrote since its last fsync."""
        if self._fh is not None:
            self._fh.flush()
            if self.sync and self.appends != self._synced_appends:
                os.fsync(self._fh.fileno())
                self._synced_appends = self.appends

    # -- read path ------------------------------------------------------

    def replay(self) -> Iterator[bytes]:
        """Yield every committed payload, oldest first.

        Reads the file fresh (committed frames only: the open scan
        already cut any torn tail, and appends are flushed before
        return), so replay composes with a live append handle.
        """
        if self._fh is not None:
            self._fh.flush()
        yield from read_records(self.path)

    def records(self) -> List[bytes]:
        return list(self.replay())

    # -- rotation / lifecycle -------------------------------------------

    def rotate(self) -> None:
        """Empty the journal: truncate it to its magic header."""
        if self._fh is None:
            raise RuntimeError("journal is closed")
        self._fh.truncate(len(MAGIC))
        if self.sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
