"""The restart stores' core: verified, versioned pickles under one
spec-hashed directory (DESIGN §10).

Every file is an envelope ``{"version", "spec_hash", ...}`` checked on
load; a garbage pickle, another version, a foreign spec hash or a
malformed payload is *rejected* (counted by reason, reported as a
``<family>.rejected`` event) and reads as absent, never as data.
Writes go through a temp file and ``os.replace``.  Shard checkpoints
(:mod:`repro.par.checkpoint`) and control-plane snapshots
(:mod:`repro.par.statestore`) add only a key scheme and a payload
check.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from ..obs import Counter, emit, get_registry

CHECKPOINT_VERSION = 5
"""Bumped whenever the checkpoint payload shape changes; old files are
then rejected (reason ``version``) instead of mis-read.  Version 5:
``StudySpec`` grew the ``engine`` field."""

STATE_VERSION = 1
"""The same for the snapshot envelope."""

_VERSIONS = {"checkpoint_version": CHECKPOINT_VERSION,
             "state_version": STATE_VERSION}

_COUNTER_NAMES = {"hit": "hits", "miss": "misses", "write": "writes",
                  "rejected": "rejected"}


def spec_hash(spec, version_key: str = "checkpoint_version") -> str:
    """Content hash naming one spec's directory in one store family.

    The spec is plain numbers, so a sorted-key JSON dump is a canonical
    byte form.  ``version_key`` (``"checkpoint_version"`` or
    ``"state_version"``) mixes that family's format version in, so a
    payload change invalidates old directories and the two families
    never share one.
    """
    payload = json.dumps(
        {version_key: _VERSIONS[version_key], **asdict(spec)},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def family_counters(prefix: str, **helps: str) -> Dict[str, Counter]:
    """One family's ``<prefix>_{hits,misses,writes,rejected}_total``
    counters, keyed by the event suffix they count."""
    return {fact: get_registry().counter(
                f"{prefix}_{_COUNTER_NAMES[fact]}_total", text)
            for fact, text in helps.items()}


class Store:
    """Loads and saves one family's envelopes under one spec's dir.

    A subclass names its ``version_key``, ``event`` prefix,
    ``counters`` and the ``file_pattern`` whose integer groups are a
    key.  ``missing_is_miss``: whether looking up an absent file counts
    a miss (a snapshot search counts its own miss instead).
    """

    version_key: ClassVar[str]
    event: ClassVar[str]
    counters: ClassVar[Dict[str, Counter]]
    file_pattern: ClassVar[re.Pattern]
    missing_is_miss: ClassVar[bool]

    def __init__(self, root, spec):
        self.spec_hash = spec_hash(spec, self.version_key)
        self.directory = Path(root) / self.spec_hash

    def keys(self) -> List[Tuple[int, ...]]:
        """Keys of this family's files on disk, ascending (unverified)."""
        if not self.directory.is_dir():
            return []
        found = []
        for name in os.listdir(self.directory):
            match = self.file_pattern.match(name)
            if match:
                found.append(tuple(int(group) for group in match.groups()
                                   if group is not None))
        return sorted(found)

    def _record(self, fact: str, **fields: Any) -> None:
        """Count one store fact and emit it as ``<event>.<fact>``."""
        labels = {"reason": fields["reason"]} if fact == "rejected" else {}
        self.counters[fact].inc(**labels)
        emit(f"{self.event}.{fact}", **fields)

    def _write(self, path: Path, payload: Dict[str, Any],
               **fields: Any) -> Path:
        """Atomically persist ``payload`` inside the envelope header;
        ``fields`` go on the write event after the file name."""
        self.directory.mkdir(parents=True, exist_ok=True)
        envelope = {"version": _VERSIONS[self.version_key],
                    "spec_hash": self.spec_hash, **payload}
        handle, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(envelope, stream,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._record("write", path=path.name, **fields)
        return path

    def _read(self, path: Path,
              valid: Callable[[Dict[str, Any]], bool]
              ) -> Optional[Dict[str, Any]]:
        """The verified envelope at ``path``, or None (absent or
        rejected); ``valid`` checks the family's payload fields."""
        try:
            with open(path, "rb") as stream:
                envelope = pickle.load(stream)
        except FileNotFoundError:
            if self.missing_is_miss:
                self._record("miss", path=path.name)
            return None
        except Exception as error:  # garbage pickles fail arbitrarily
            self._record("rejected", path=path.name, reason="corrupt",
                         error=str(error))
            return None
        if not isinstance(envelope, dict):
            reason = "corrupt"
        elif envelope.get("version") != _VERSIONS[self.version_key]:
            reason = "version"
        elif envelope.get("spec_hash") != self.spec_hash:
            reason = "spec_mismatch"
        elif not valid(envelope):
            reason = "corrupt"
        else:
            return envelope
        self._record("rejected", path=path.name, reason=reason)
        return None
