"""Byte-exact session transcripts and the message links that record them.

A Transcript is the passive adversary's view: every wire message in
order, with direction, a logical label, and flags ("handshake",
"early-data", "transport", ...). Links sit between protocol endpoints;
the adversarial link used by the simulator can drop, modify, or inject
packets according to a declarative script.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScriptError, parsing

TRANSCRIPT_SCHEMA_VERSION = 1


class DroppedPacket(Exception):
    """Raised by a link when the adversary drops a message."""


@dataclass
class TranscriptEntry:
    index: int
    direction: str  # "i->r" or "r->i"
    label: str
    flags: tuple
    data: bytes
    modified: bool = False

    def to_json(self):
        return {
            "index": self.index,
            "direction": self.direction,
            "label": self.label,
            "flags": list(self.flags),
            "data": self.data.hex(),
            "modified": self.modified,
        }


@dataclass
class Transcript:
    protocol: str = ""
    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def record(self, direction, data, label, flags=(), modified=False):
        entry = TranscriptEntry(
            len(self.entries), direction, label, tuple(flags), bytes(data), modified
        )
        self.entries.append(entry)
        return entry

    def to_json(self):
        return {
            "schema_version": TRANSCRIPT_SCHEMA_VERSION,
            "protocol": self.protocol,
            "meta": dict(self.meta),
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, doc):
        with parsing("transcript"):
            t = cls(protocol=doc.get("protocol", ""), meta=dict(doc.get("meta", {})))
            for e in doc["entries"]:
                t.record(
                    e["direction"],
                    bytes.fromhex(e["data"]),
                    e["label"],
                    tuple(e.get("flags", ())),
                    e.get("modified", False),
                )
        return t


class DirectLink:
    """Honest link: records and delivers every message unchanged."""

    def __init__(self, transcript=None):
        self.transcript = transcript if transcript is not None else Transcript()

    def transfer(self, direction, data, label, flags=()):
        self.transcript.record(direction, data, label, flags)
        return data


class AdversarialLink:
    """Link whose behavior is scripted per packet index.

    Script actions: {"packet": i, "action": "drop"} |
    {"packet": i, "action": "replace", "data": hex} |
    {"packet": i, "action": "xor", "offset": n, "mask": m}
    The transcript records what was actually delivered.
    """

    def __init__(self, script=None, transcript=None):
        self.transcript = transcript if transcript is not None else Transcript()
        self.script = list(script or [])
        self._counter = 0
        self._used = [False] * len(self.script)

    def transfer(self, direction, data, label, flags=()):
        index = self._counter
        self._counter += 1
        modified = False
        for slot, action in enumerate(self.script):
            if action.get("packet") != index:
                continue
            self._used[slot] = True
            kind = action.get("action")
            if kind == "drop":
                self.transcript.record(direction, b"", label, flags + ("dropped",), True)
                raise DroppedPacket(label)
            if kind == "replace":
                data = bytes.fromhex(action["data"])
                modified = True
            elif kind == "xor":
                offset = action["offset"]
                if offset >= len(data):
                    raise ScriptError(f"xor offset {offset} beyond packet of {len(data)} bytes")
                mutable = bytearray(data)
                mutable[offset] ^= action.get("mask", 0x01)
                data = bytes(mutable)
                modified = True
            else:
                raise ScriptError(f"unknown adversary action {kind!r}")
        self.transcript.record(direction, data, label, flags, modified)
        return data

    def finish(self):
        """Raise if any script entry referenced a packet that never existed."""
        for action, used in zip(self.script, self._used):
            if not used:
                raise ScriptError(
                    f"script references packet {action.get('packet')} but only "
                    f"{self._counter} packets were sent"
                )
