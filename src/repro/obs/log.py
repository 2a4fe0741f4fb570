"""Log output for the event bus.

The library logs only through :func:`repro.obs.events.emit`: each event
is also a record on the stdlib logger ``repro.events``, at the level
its kind maps to (:data:`repro.obs.events.LOG_LEVELS`), with the event
kind as message and the event fields as ``record.fields``.

Nothing is printed until :func:`configure` attaches a handler — a
:class:`logging.NullHandler` sits on the ``repro`` root, so importing
the library never touches stderr.  The CLI calls :func:`configure` from
its global ``--log-level`` / ``--log-json`` flags; embedders may attach
their own handlers to the ``repro`` logger tree instead.

Two formatters ship with the library:

* :class:`KeyValueFormatter` — one human-readable line,
  ``HH:MM:SS LEVEL logger event key=value ...``;
* :class:`JsonFormatter` — one JSON object per line, safe to feed into
  ``jq`` or a log pipeline.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, IO, Mapping, Optional

ROOT = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

logging.getLogger(ROOT).addHandler(logging.NullHandler())


def _fields_of(record: logging.LogRecord) -> Mapping[str, Any]:
    return getattr(record, "fields", None) or {}


def _format_value(value: Any) -> str:
    """Render one field value for the key=value formatter."""
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        return json.dumps(text)
    return text


class KeyValueFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger event key=value ...`` lines."""

    default_time_format = "%H:%M:%S"

    def format(self, record: logging.LogRecord) -> str:
        head = (f"{self.formatTime(record)} {record.levelname:<7} "
                f"{record.name} {record.getMessage()}")
        pairs = " ".join(
            f"{key}={_format_value(value)}"
            for key, value in _fields_of(record).items()
        )
        return f"{head} {pairs}" if pairs else head


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, event, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload.update(_fields_of(record))
        return json.dumps(payload, default=str)


def configure(level: str = "info", json_output: bool = False,
              stream: Optional[IO[str]] = None) -> logging.Handler:
    """Attach one stream handler to the ``repro`` logger tree.

    Replaces any handler a previous :func:`configure` call installed,
    so the CLI (and tests) can call it repeatedly.  Returns the handler
    for callers that want to detach it again.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {sorted(_LEVELS)}")
    root = logging.getLogger(ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_configured", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if json_output
                         else KeyValueFormatter())
    handler._repro_configured = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    return handler
