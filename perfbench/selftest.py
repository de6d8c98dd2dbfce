"""Self-test of the output oracles: each must reject a corrupted delivery.

Usage::

    python3 perfbench/selftest.py

Feeds each oracle a clean exchange (which must pass) and then, one at a
time, a duplicate, a loss, a reordering, an altered Body, a wrong
``wsa:To``, a wrong RelatesTo, a wrong MailboxId and a wrong echo (each
of which must be rejected).  One overtaking in 100 deliveries, below
``REORDER_LIMIT``, is counted and accepted, as in the benchmark's runs.
Needs no front process and no network.
"""

from __future__ import annotations

import base64
import sys
import xml.etree.ElementTree as ET

import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from load import ENVELOPE_OPEN  # noqa: E402
from oracles import Q_BODY, MailboxOracle, OneWayOracle, RpcOracle  # noqa: E402

SINK_A = "http://127.0.0.1:9001/sink/svc0"
SINK_B = "http://127.0.0.1:9002/sink/svc1"
PHYSICAL = {"svc0": SINK_A, "svc1": SINK_B}
BODIES = ["<e:echo><text>alpha</text></e:echo>", "<e:echo><text>beta</text></e:echo>"]


def envelope(header: str, body: str) -> bytes:
    return (
        ENVELOPE_OPEN + f"<soapenv:Header>{header}</soapenv:Header>"
        f"<soapenv:Body>{body}</soapenv:Body></soapenv:Envelope>"
    ).encode()


def forwarded(mid: str, to: str, body: int) -> bytes:
    return envelope(f"<wsa:To>{to}</wsa:To><wsa:MessageID>{mid}</wsa:MessageID>", BODIES[body])


def oneway_case(deliveries: list[tuple[str, bytes]], sent: int = 2) -> OneWayOracle:
    """Messages m1..m<sent> go to svc0 and m<sent+1> to svc1; then ``deliveries``."""
    expected = [ET.fromstring(envelope("", b)).find(Q_BODY) for b in BODIES]
    oracle = OneWayOracle(PHYSICAL, expected)
    for i in range(1, sent + 1):
        oracle.sent(f"m{i}", "svc0", (i - 1) % 2)
    oracle.sent(f"m{sent + 1}", "svc1", 0)
    for url, data in deliveries:
        oracle.arrived(url, data)
    oracle.finish()
    return oracle


def reordered(sent: int, reverse: bool) -> list[tuple[str, bytes]]:
    """All of a ``oneway_case(sent=sent)`` delivered, with m2 overtaking m1
    or, with ``reverse``, every svc0 message in reverse order."""
    to_a = [(SINK_A, forwarded(f"m{i}", SINK_A, (i - 1) % 2)) for i in range(1, sent + 1)]
    if reverse:
        to_a.reverse()
    else:
        to_a[0], to_a[1] = to_a[1], to_a[0]
    return to_a + [(SINK_B, forwarded(f"m{sent + 1}", SINK_B, 0))]


CLEAN = [
    (SINK_A, forwarded("m1", SINK_A, 0)),
    (SINK_B, forwarded("m3", SINK_B, 0)),
    (SINK_A, forwarded("m2", SINK_A, 1)),
]


def mailbox_reply(rel: str, box: str, text: str) -> str:
    data = envelope(
        f"<wsa:RelatesTo>{rel}</wsa:RelatesTo><mb:MailboxId>{box}</mb:MailboxId>",
        f"<e:echoResponse><return>{text}</return></e:echoResponse>",
    )
    return base64.b64encode(data).decode()


def take_response(*replies: str) -> bytes:
    messages = "".join(f"<message>{r}</message>" for r in replies)
    return envelope("", f"<mb:takeResponse>{messages}</mb:takeResponse>")


def mailbox_case(*takes: bytes) -> MailboxOracle:
    oracle = MailboxOracle("box1")
    oracle.sent("r1", "hello")
    oracle.sent("r2", "world")
    for take in takes:
        oracle.taken(take)
    oracle.finish()
    return oracle


def rpc_case(status: int, text: str) -> RpcOracle:
    oracle = RpcOracle()
    body = envelope("", f"<e:echoResponse><return>{text}</return></e:echoResponse>")
    oracle.response(status, body, "hello")
    return oracle


def main() -> int:
    good_r1 = mailbox_reply("r1", "box1", "hello")
    good_r2 = mailbox_reply("r2", "box1", "world")
    rare_overtaking = oneway_case(reordered(99, reverse=False), sent=99)
    cases = {
        # name: (oracle after the exchange, must it pass?)
        "one-way clean": (oneway_case(CLEAN), True),
        "one-way duplicate": (oneway_case(CLEAN + [CLEAN[0]]), False),
        "one-way loss": (oneway_case(CLEAN[:2]), False),
        "one-way reordering": (oneway_case([CLEAN[2], CLEAN[0], CLEAN[1]]), False),
        "one-way 1 overtaking in 100": (rare_overtaking, True),
        "one-way reversed stream": (oneway_case(reordered(99, reverse=True), sent=99), False),
        "one-way altered Body": (
            oneway_case([(SINK_A, forwarded("m1", SINK_A, 1))] + CLEAN[1:]), False),
        "one-way wrong sink": (
            oneway_case([(SINK_B, forwarded("m1", SINK_A, 0))] + CLEAN[1:]), False),
        "one-way To not rewritten": (
            oneway_case([(SINK_A, forwarded("m1", "urn:wsd:svc0", 0))] + CLEAN[1:]), False),
        "mailbox clean": (mailbox_case(take_response(good_r1), take_response(good_r2)), True),
        "mailbox duplicate take": (
            mailbox_case(take_response(good_r1, good_r1), take_response(good_r2)), False),
        "mailbox loss": (mailbox_case(take_response(good_r1)), False),
        "mailbox wrong RelatesTo": (
            mailbox_case(take_response(good_r1, mailbox_reply("r9", "box1", "world"))), False),
        "mailbox wrong MailboxId": (
            mailbox_case(take_response(good_r1, mailbox_reply("r2", "box2", "world"))), False),
        "mailbox altered echo": (
            mailbox_case(take_response(good_r1, mailbox_reply("r2", "box1", "w0rld"))), False),
        "rpc clean": (rpc_case(200, "hello"), True),
        "rpc error status": (rpc_case(500, "hello"), False),
        "rpc altered echo": (rpc_case(200, "hell0"), False),
    }
    ok = True
    for name, (oracle, should_pass) in cases.items():
        passed = not oracle.violations
        verdict = "ok" if passed == should_pass else "WRONG"
        ok = ok and passed == should_pass
        print(f"{verdict:5s} {name:28s} {'accepted' if passed else 'rejected'}"
              + ("" if passed else f" ({oracle.violations[0]})"))
    counted = len(rare_overtaking.reordered) == 1
    print(f"{'ok' if counted else 'WRONG':5s} {'one-way overtaking counted':28s} "
          f"reordered={len(rare_overtaking.reordered)}")
    ok = ok and counted
    print("all oracles reject their corruptions" if ok else "an oracle missed a corruption")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
