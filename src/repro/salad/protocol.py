"""SALAD wire-protocol message kinds and payloads.

Keeping the message vocabulary in one place makes the protocol auditable:
every message a SALAD exchanges is one of these kinds, and the traffic
counters of Figs. 9-10 sum over exactly this vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.fingerprint import Fingerprint
from repro.salad.records import SaladRecord

#: A fingerprint record on its way to cell-aligned leaves (Fig. 4).
RECORD = "record"

#: A coalesced batch of records sharing one hop to the same neighbor.
#: Payload: tuple of ``(record, hops)`` pairs.  Aggregation changes only the
#: message *count* (one envelope per neighbor per hop instead of one per
#: record); the per-record routing decisions are exactly those of Fig. 4.
RECORD_BATCH = "record_batch"

#: Join propagation for a new leaf (Fig. 5).
JOIN = "join"

#: Sent by a vector-aligned extant leaf to a joining leaf (section 4.4).
WELCOME = "welcome"

#: Reply from the joining leaf; both sides add leaf-table entries.
WELCOME_ACK = "welcome_ack"

#: Request for leaf-table identifiers after a width decrease (section 4.6).
LEAF_REQUEST = "leaf_request"

#: Response carrying leaf identifiers.
LEAF_RESPONSE = "leaf_response"

#: Clean departure notice (section 4.5).
DEPARTURE = "departure"

#: Periodic liveness refresh (section 4.5).
REFRESH = "refresh"

#: Duplicate notification: "machine k has a file with fingerprint f" (Fig. 4).
MATCH = "match"

ALL_KINDS = (
    RECORD,
    RECORD_BATCH,
    JOIN,
    WELCOME,
    WELCOME_ACK,
    LEAF_REQUEST,
    LEAF_RESPONSE,
    DEPARTURE,
    REFRESH,
    MATCH,
)


@dataclass(frozen=True)
class JoinPayload:
    """`<s, n>` of Fig. 5: forwarding sender and the joining leaf."""

    sender: int
    new_leaf: int


@dataclass(frozen=True)
class MatchPayload:
    """A duplicate notification: some other machine holds the same content."""

    fingerprint: Fingerprint
    other_machine: int


RecordPayload = SaladRecord
#: Payload of a RECORD_BATCH message: ``(record, hops)`` pairs.
RecordBatchPayload = Tuple[Tuple[SaladRecord, int], ...]
LeafResponsePayload = Tuple[int, ...]
