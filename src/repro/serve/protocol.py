"""Wire protocol of the power-query service: JSON lines over TCP.

Each request and each response is one JSON object on one ``\\n``-terminated
line (UTF-8).  Requests carry a caller-chosen ``id`` that is echoed back,
so a client may pipeline many requests on one connection and match
responses out of order (micro-batching on the server reorders completions
by design).

Request shapes
--------------
``{"id": .., "op": "evaluate", "model": NAME, "initial": BITS, "final": BITS}``
    One transition; ``BITS`` is an n-character 0/1 string in the model's
    external input order.
``{"id": .., "op": "evaluate", "model": NAME, "pairs": [[BITS, BITS], ...]}``
    A client-side batch of transitions in one request.
``{"id": .., "op": "models"}``
    Names and metadata of the models this server holds.
``{"id": .., "op": "ping"}`` / ``{"id": .., "op": "stats"}`` /
``{"id": .., "op": "slowlog"}`` / ``{"id": .., "op": "shutdown"}``
    Liveness, telemetry snapshot, slow-query log, graceful stop.

Any request may additionally carry a ``deadline_ms`` field — the
caller's **remaining** end-to-end budget in milliseconds at send time
(relative, not absolute: wall clocks differ across machines, monotonic
clocks differ across processes, but a duration survives the hop).  Each
server rebases it onto its own monotonic clock on arrival
(:class:`Deadline`), caps its own waits (long polls, batch parking) at
the remainder, and answers an already-expired request with a structured
``timeout`` instead of doing work nobody is waiting for.  Clients
re-stamp the *current* remainder on every retry hop, so one budget
covers the whole client→router→shard→queue chain, retries and breaker
waits included.  Absent field = no deadline, exactly the old behaviour.

Any request may additionally carry a ``traceparent`` field — a
W3C-traceparent-shaped string (``00-<trace_id>-<span_id>-01``, see
:class:`repro.obs.trace.TraceContext`) naming the caller's hop of a
distributed trace.  Servers that recognise it stamp their spans with the
same ``trace_id`` so ``repro trace-merge`` can assemble one cross-process
timeline; servers (and versions) that don't simply ignore the field.  A
malformed ``traceparent`` is ignored, never an error: telemetry must not
fail a request.

Responses are ``{"id": .., "ok": true, "result": ...}`` on success and
``{"id": .., "ok": false, "error": {"type": T, "message": M}}`` on
failure, with ``T`` one of :data:`ERROR_TYPES`.  A line the server cannot
even parse is answered with ``id = null`` and a ``protocol`` error.
"""

from __future__ import annotations

import json
import time
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError

#: Structured error categories a response may carry.
ERROR_TYPES = (
    "protocol",       # unparseable line / not a JSON object / line too long
    "bad_request",    # parseable but malformed request (bits, fields, op args)
    "unknown_model",  # model name the server does not hold
    "not_found",      # object / job key the server does not hold
    "timeout",        # request expired before its batch was evaluated
    "unavailable",    # server is shutting down
    "internal",       # unexpected evaluation failure
)

#: One request line may not exceed this many bytes (DoS guard; generous
#: enough for thousands of transitions of a wide macro in one batch).
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(ReproError):
    """A request violated the wire protocol; carries the error type."""

    def __init__(self, error_type: str, message: str):
        assert error_type in ERROR_TYPES
        self.error_type = error_type
        super().__init__(message)


def encode(obj: Dict) -> bytes:
    """Serialise one protocol object to its wire line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode_request(line: bytes) -> Dict:
    """Parse one request line; raises :class:`ProtocolError` when invalid."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "protocol", f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("protocol", f"unparseable request: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("protocol", "request must be a JSON object")
    if "op" not in obj or not isinstance(obj["op"], str):
        raise ProtocolError("bad_request", "request needs a string 'op' field")
    return obj


def ok_response(request_id, result) -> Dict:
    """Build a success response envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, error_type: str, message: str) -> Dict:
    """Build a structured error response envelope."""
    if error_type not in ERROR_TYPES:
        error_type = "internal"
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


class Deadline:
    """A monotonic end-to-end budget that travels on the envelope.

    Created once at the edge (``Deadline.after(seconds)``) and re-based
    on each server's own monotonic clock as it hops
    (``Deadline.from_request``).  All arithmetic is
    :func:`time.monotonic` — wall-clock jumps (NTP steps, suspend)
    neither hang nor prematurely expire a budget.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now on this process's clock."""
        return cls(time.monotonic() + max(0.0, float(seconds)))

    @classmethod
    def from_request(cls, request: Dict) -> "Optional[Deadline]":
        """Rebase a request's ``deadline_ms`` remainder locally.

        Returns None when the field is absent.  A malformed value is
        ignored (None), never an error — like ``traceparent``, the
        envelope extras must not fail a request.
        """
        raw = request.get("deadline_ms")
        if raw is None:
            return None
        try:
            remaining = float(raw) / 1000.0
        except (TypeError, ValueError):
            return None
        return cls(time.monotonic() + max(0.0, remaining))

    def remaining_s(self) -> float:
        """Seconds left (clamped at 0.0)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def stamp(self, payload: Dict) -> Dict:
        """A copy of ``payload`` carrying the current remainder."""
        return dict(payload, deadline_ms=round(self.remaining_s() * 1000.0, 3))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining_s():.3f}s)"


def _parse_bits(bits, width: int, field: str) -> List[bool]:
    if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
        raise ProtocolError(
            "bad_request",
            f"{field!r} must be a {width}-character 0/1 string",
        )
    return [ch == "1" for ch in bits]


#: Byte table mapping ``'0'``/``'1'`` to the numpy bools 0/1 and every
#: other byte to 2, which marks the request as malformed.
_TO_BOOL = bytes(0 if c == 48 else 1 if c == 49 else 2 for c in range(256))


def parse_transitions(
    request: Dict, num_inputs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract the ``(P, n)`` initial/final matrices of an evaluate request.

    Accepts either the single-transition ``initial``/``final`` fields or
    a ``pairs`` list; exactly one spelling must be present.

    Every bit string of the request is joined into one buffer (for
    ``pairs`` initial and final interleave, so row ``r`` of the buffer
    is ``initial_r + final_r``) and read with a single ``np.frombuffer``
    pass; the returned matrices are bool views into that buffer.  Any
    malformed entry sends the request down the per-string path of
    :func:`_parse_each`, which words the same ``bad_request`` message the
    protocol has always given.
    """
    has_single = "initial" in request or "final" in request
    has_pairs = "pairs" in request
    if has_single == has_pairs:
        raise ProtocolError(
            "bad_request",
            "evaluate needs either 'initial'+'final' or 'pairs' (not both)",
        )
    if has_single:
        strings = (request.get("initial"), request.get("final"))
    else:
        pairs = request["pairs"]
        if (
            not isinstance(pairs, list)
            or not pairs
            or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)
        ):
            raise ProtocolError(
                "bad_request", "'pairs' must be a non-empty list of [initial, final]"
            )
        strings = list(chain.from_iterable(pairs))
    parsed = _parse_joined(strings, num_inputs)
    if parsed is None:
        parsed = _parse_each(request, num_inputs)
    return parsed


def _parse_joined(strings, width: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One-pass parse of interleaved initial/final strings; None if malformed."""
    try:
        joined = "".join(strings).encode("ascii")
    except (TypeError, UnicodeEncodeError):  # a non-str entry, a non-ASCII digit
        return None
    # Per-string lengths, not the joined length: mixed lengths can sum to
    # the right total.
    if set(map(len, strings)) != {width}:
        return None
    codes = joined.translate(_TO_BOOL)
    if 2 in codes:  # a byte that is not a binary digit
        return None
    bits = np.frombuffer(bytearray(codes), dtype=np.bool_)
    bits = bits.reshape(len(strings) // 2, 2, width)
    return bits[:, 0], bits[:, 1]


def _parse_each(request: Dict, num_inputs: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-character parse of a request whose shape is already validated.

    Only malformed requests come here: it raises the ``bad_request``
    naming the first offending field (every initial string is checked
    before any final string), exactly as the protocol always has.
    """
    if "pairs" not in request:
        initial = [_parse_bits(request.get("initial"), num_inputs, "initial")]
        final = [_parse_bits(request.get("final"), num_inputs, "final")]
    else:
        pairs = request["pairs"]
        initial = [_parse_bits(p[0], num_inputs, "pairs[].initial") for p in pairs]
        final = [_parse_bits(p[1], num_inputs, "pairs[].final") for p in pairs]
    return np.array(initial, dtype=bool), np.array(final, dtype=bool)


def model_summary(name: str, model) -> Dict:
    """Metadata one ``models`` response row carries for a served model."""
    return {
        "name": name,
        "macro": model.macro_name,
        "inputs": model.num_inputs,
        "input_names": list(model.input_names),
        "strategy": model.strategy,
        "nodes": model.size,
        "source_netlist_sha256": model.source_hash,
    }


def require_field(request: Dict, field: str, kind=str):
    """Fetch a typed field from a request or raise ``bad_request``."""
    value = request.get(field)
    if not isinstance(value, kind):
        raise ProtocolError(
            "bad_request", f"request needs a {kind.__name__} {field!r} field"
        )
    return value


def read_frames(buffer: bytes) -> Tuple[List[bytes], bytes]:
    """Split a byte buffer into complete lines plus the unread remainder.

    Helper for sync clients that read raw chunks; the server side uses
    ``StreamReader.readline`` directly.
    """
    frames: List[bytes] = []
    while True:
        newline = buffer.find(b"\n")
        if newline < 0:
            return frames, buffer
        frames.append(buffer[:newline])
        buffer = buffer[newline + 1 :]


class ResponseError(ReproError):
    """Raised by clients when a response carries a structured error."""

    def __init__(self, error_type: str, message: str, request_id=None):
        self.error_type = error_type
        self.request_id = request_id
        super().__init__(f"{error_type}: {message}")


def unwrap_response(response: Dict):
    """Return a response's result, raising :class:`ResponseError` on error."""
    if response.get("ok"):
        return response.get("result")
    error = response.get("error") or {}
    raise ResponseError(
        error.get("type", "internal"),
        error.get("message", "malformed error response"),
        request_id=response.get("id"),
    )
