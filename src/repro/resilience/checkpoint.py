"""Integrity-verified atomic checkpoint storage.

:class:`CheckpointStore` wraps the orchestrator's JSON checkpoint file
with three guarantees the bare ``tmp + os.replace`` idiom lacked:

**Durability** - the bytes land through
:func:`~repro.store.atomic.atomic_write_bytes` (temp file, fsync,
rename, directory fsync), so a process killed mid-write can never
publish a checkpoint that parses but is truncated: the final name holds
either the complete new bytes or no new bytes at all.

**Integrity** - every checkpoint carries a sha256 footer over its
payload bytes (the per-file hash-registry idiom, applied to
checkpoints).  A flipped bit, a torn tail, or a concurrent writer's
interleaving is detected on read instead of silently resuming from
garbage.

**Recovery** - each write rotates the previous *verified* checkpoint to
a ``.bak`` sibling.  When the primary fails verification, :meth:`read`
rolls back to the backup automatically; the orchestrator then simply
recomputes the few cells the backup predates.  A corrupt file is never
rotated into the backup slot, so one corruption event cannot poison
both copies.

Every anomaly is appended to :attr:`CheckpointStore.events` so callers
can surface corruption/rollback telemetry instead of recovering
silently.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.store.atomic import atomic_write_bytes

#: Separator between the JSON body and its integrity footer.
FOOTER_PREFIX = "\n#sha256="


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def encode_checkpoint(payload: Dict[str, object]) -> str:
    """Serialize ``payload`` with its sha256 integrity footer."""
    body = json.dumps(payload, sort_keys=True)
    return body + FOOTER_PREFIX + _digest(body) + "\n"


def decode_checkpoint(text: str) -> Optional[Dict[str, object]]:
    """Parse footer-carrying checkpoint text; ``None`` if unverifiable.

    Rejects text without a footer (legacy or torn files), with a footer
    that does not match the body hash, or whose body is not valid JSON.
    """
    body, sep, footer = text.rpartition(FOOTER_PREFIX)
    if not sep:
        return None
    if footer.strip() != _digest(body):
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class CheckpointStore:
    """One checkpoint file plus its verified ``.bak`` predecessor."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.backup_path = self.path.with_name(self.path.name + ".bak")
        #: Anomalies observed by this store instance, oldest first:
        #: dicts with ``event`` (``corrupt-checkpoint`` / ``rollback``)
        #: and ``path`` keys.
        self.events: List[Dict[str, str]] = []

    # ------------------------------------------------------------------
    def _read_verified(self, path: Path) -> Optional[Dict[str, object]]:
        """Payload of ``path`` iff it exists and verifies; logs corruption."""
        if not path.exists():
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            # A flipped byte can break UTF-8 itself, not just the hash.
            self.events.append(
                {"event": "corrupt-checkpoint", "path": str(path)}
            )
            return None
        payload = decode_checkpoint(text)
        if payload is None:
            self.events.append(
                {"event": "corrupt-checkpoint", "path": str(path)}
            )
        return payload

    def write(self, payload: Dict[str, object]) -> None:
        """Atomically publish ``payload``, rotating the old good copy.

        Write order: (verified primary rotates to ``.bak``) -> atomic
        write of the new bytes over the primary.  A kill at any point
        leaves the complete new primary or the old verified copy (which
        :meth:`read` rolls back to) - never a half-written primary, and
        never a corrupt backup.
        """
        # Only a checkpoint that still verifies may become the backup;
        # rotating unverified bytes would let a single corruption event
        # poison both copies.
        if self._read_verified(self.path) is not None:
            os.replace(self.path, self.backup_path)
        atomic_write_bytes(
            self.path, encode_checkpoint(payload).encode("utf-8")
        )

    def read(self) -> Optional[Dict[str, object]]:
        """The newest payload that verifies, rolling back if needed.

        Tries the primary first; on corruption (or absence after a
        crash between the rotation and the write) falls back to the
        ``.bak`` copy, recording a ``rollback`` event.  Returns ``None``
        when no copy verifies - the caller starts fresh.
        """
        payload = self._read_verified(self.path)
        if payload is not None:
            return payload
        backup = self._read_verified(self.backup_path)
        if backup is not None:
            self.events.append(
                {"event": "rollback", "path": str(self.backup_path)}
            )
            return backup
        return None

    def verify(self) -> bool:
        """Does the primary checkpoint exist and pass verification?

        Does not log events - this is the silent probe used by the
        orchestrator's end-of-run audit.
        """
        if not self.path.exists():
            return False
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return False
        return decode_checkpoint(text) is not None

    # ------------------------------------------------------------------
    def corrupt(self) -> bool:
        """Deliberately damage the primary checkpoint (fault injection).

        Flips one byte in the middle of the file - guaranteed to break
        the sha256 footer check whether it lands in the body or the
        footer.  Returns False when there is nothing to corrupt.
        """
        if not self.path.exists():
            return False
        blob = bytearray(self.path.read_bytes())
        if not blob:
            return False
        position = len(blob) // 2
        blob[position] ^= 0xFF
        self.path.write_bytes(bytes(blob))
        return True
