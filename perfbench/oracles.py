"""Output oracles: properties of the method, checked apart from the program.

Every check here parses with the standard library's ``xml.etree``, never
with ``repro.xmlmini``, and compares against what the load process itself
sent — not against a stored copy of the program's output.  Each oracle
collects violation strings; a run with any violation is not correct.
"""

from __future__ import annotations

import base64
import collections
import xml.etree.ElementTree as ET

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
WSA_NS = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
ECHO_NS = "urn:repro:echo"
MSGBOX_NS = "urn:repro:msgbox"

Q_HEADER = f"{{{SOAP_NS}}}Header"
Q_BODY = f"{{{SOAP_NS}}}Body"
Q_TO = f"{{{WSA_NS}}}To"
Q_MSGID = f"{{{WSA_NS}}}MessageID"
Q_RELATES = f"{{{WSA_NS}}}RelatesTo"
Q_REPLYTO = f"{{{WSA_NS}}}ReplyTo"
Q_ADDRESS = f"{{{WSA_NS}}}Address"
Q_MAILBOX_ID = f"{{{MSGBOX_NS}}}MailboxId"

#: share of a session's one-way deliveries that may overtake an earlier
#: message to the same destination: over four times the worst session
#: seen on the reference host (see README), far below what a reversed
#: batch or a LIFO queue would give
REORDER_LIMIT = 0.10


def xml_equal(a: ET.Element, b: ET.Element) -> bool:
    """Infoset equality of two element trees (names, attributes, text)."""
    if a.tag != b.tag or a.attrib != b.attrib:
        return False
    if (a.text or "").strip() != (b.text or "").strip():
        return False
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.tail or "").strip() != (y.tail or "").strip() or not xml_equal(x, y):
            return False
    return True


def header_text(root: ET.Element, tag: str) -> str | None:
    header = root.find(Q_HEADER)
    if header is None:
        return None
    el = header.find(tag)
    return None if el is None else (el.text or "").strip()


def rpc_text(root: ET.Element, wrapper: str, part: str) -> str | None:
    """Text of ``<part>`` inside the Body's ``{urn:repro:echo}wrapper``."""
    body = root.find(Q_BODY)
    if body is None:
        return None
    call = body.find(f"{{{ECHO_NS}}}{wrapper}")
    if call is None:
        return None
    el = call.find(part)
    return None if el is None else (el.text or "")


class OneWayOracle:
    """One-way delivery: exactly once, at the registered sink, in
    per-destination send order, ``wsa:To`` rewritten, Body XML-equal.

    Each overtaking is listed in ``reordered``.  The threaded
    dispatcher's CxThreads reorder a few messages to one destination now
    and then (up to 22 in 1,000 in a session on the reference host), so
    the order check fails a session only when more than
    ``REORDER_LIMIT`` of its deliveries overtook an earlier message.
    """

    def __init__(self, physical: dict[str, str], bodies: list[ET.Element]) -> None:
        self.reordered: list[str] = []
        self.physical = physical  # logical -> registered physical URL
        self.bodies = bodies  # expected Body element per body index
        self.outstanding: dict[str, tuple[str, int]] = {}
        self.delivered: set[str] = set()
        self.order: dict[str, collections.deque] = collections.defaultdict(
            collections.deque
        )
        self.violations: list[str] = []
        self.failed_ids: set[str] = set()

    @staticmethod
    def destination(url: str) -> str:
        """The dispatcher's FIFO key: the ``host:port`` of a URL."""
        return url.split("/", 3)[2]

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def sent(self, message_id: str, logical: str, body_index: int) -> None:
        self.outstanding[message_id] = (logical, body_index)
        self.order[self.destination(self.physical[logical])].append(message_id)

    def fail(self, message_id: str | None, why: str) -> None:
        self.violations.append(why)
        if message_id is not None:
            self.failed_ids.add(message_id)

    def arrived(self, url: str, data: bytes) -> str | None:
        """Check one delivery at sink ``url``; returns its MessageID."""
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            self.fail(None, f"unparseable delivery at {url}: {exc}")
            return None
        mid = header_text(root, Q_MSGID)
        if mid in self.delivered:
            self.fail(mid, f"duplicate delivery of {mid}")
            return None
        entry = self.outstanding.pop(mid, None) if mid else None
        if entry is None:
            self.fail(mid, f"delivery of a message never sent: {mid}")
            return None
        self.delivered.add(mid)
        logical, body_index = entry
        expected_url = self.physical[logical]
        if url != expected_url:
            self.fail(mid, f"{mid} for {logical} arrived at {url}, not {expected_url}")
        to = header_text(root, Q_TO)
        if to != expected_url:
            self.fail(mid, f"{mid} wsa:To is {to!r}, not {expected_url!r}")
        body = root.find(Q_BODY)
        if body is None or not xml_equal(body, self.bodies[body_index]):
            self.fail(mid, f"{mid} Body differs from the Body sent")
        queue = self.order[self.destination(expected_url)]
        if queue and queue[0] == mid:
            queue.popleft()
        else:
            self.reordered.append(f"{mid} overtook an earlier message to its destination")
            try:
                queue.remove(mid)
            except ValueError:
                pass
        return mid

    def finish(self) -> None:
        for mid in self.outstanding:
            self.fail(mid, f"{mid} was never delivered")
        if len(self.reordered) > REORDER_LIMIT * len(self.delivered):
            self.fail(
                None,
                f"{len(self.reordered)} of {len(self.delivered)} deliveries overtook an "
                f"earlier message to their destination (limit {REORDER_LIMIT:.0%}): "
                f"{self.reordered[0]}",
            )


class MailboxOracle:
    """Mailbox replies: each taken once, RelatesTo names an outstanding
    request, MailboxId names our mailbox, echoed text equals the sent one."""

    def __init__(self, mailbox_id: str) -> None:
        self.mailbox_id = mailbox_id
        self.outstanding: dict[str, str] = {}
        self.answered: set[str] = set()
        self.violations: list[str] = []
        self.failed_ids: set[str] = set()

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def sent(self, message_id: str, text: str) -> None:
        self.outstanding[message_id] = text

    def fail(self, message_id: str | None, why: str) -> None:
        self.violations.append(why)
        if message_id is not None:
            self.failed_ids.add(message_id)

    def taken(self, take_response: bytes) -> list[str]:
        """Check one ``take`` response; returns the request ids answered."""
        try:
            root = ET.fromstring(take_response)
        except ET.ParseError as exc:
            self.fail(None, f"unparseable take response: {exc}")
            return []
        body = root.find(Q_BODY)
        wrapper = None if body is None else body.find(f"{{{MSGBOX_NS}}}takeResponse")
        if wrapper is None:
            self.fail(None, "take response has no takeResponse body")
            return []
        answered = []
        for el in wrapper.findall("message"):
            mid = self.reply(base64.b64decode(el.text or ""))
            if mid is not None:
                answered.append(mid)
        return answered

    def reply(self, data: bytes) -> str | None:
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            self.fail(None, f"unparseable reply: {exc}")
            return None
        rel = header_text(root, Q_RELATES)
        if rel in self.answered:
            self.fail(rel, f"reply to {rel} taken twice")
            return None
        text = self.outstanding.pop(rel, None) if rel else None
        if text is None:
            self.fail(rel, f"reply RelatesTo {rel!r} names no outstanding request")
            return None
        self.answered.add(rel)
        box = header_text(root, Q_MAILBOX_ID)
        if box != self.mailbox_id:
            self.fail(rel, f"reply to {rel} carries MailboxId {box!r}")
        if rpc_text(root, "echoResponse", "return") != text:
            self.fail(rel, f"reply to {rel} does not echo the text sent")
        return rel

    def finish(self) -> None:
        for mid in self.outstanding:
            self.fail(mid, f"no reply to {mid} was taken")


class RpcOracle:
    """RPC echo: status 200 and the returned text equals the text sent."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.failed = 0

    def response(self, status: int, body: bytes, text: str) -> bool:
        why = None
        if status != 200:
            why = f"RPC status {status}"
        else:
            try:
                got = rpc_text(ET.fromstring(body), "echoResponse", "return")
            except ET.ParseError as exc:
                got, why = None, f"unparseable RPC response: {exc}"
            if why is None and got != text:
                why = "RPC response does not echo the text sent"
        if why is None:
            return True
        self.violations.append(why)
        self.failed += 1
        return False

    def finish(self) -> None:
        pass
