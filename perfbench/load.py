"""The load process: one thread, one event loop, at most two client
connections to the front.

It holds the sinks and the stub echo services the front forwards to, so
latency is taken on one clock, from the send to the arrival.  HTTP is
spoken here with a few lines of asyncio streams, not with ``repro``, so a
change to the program under test cannot change how it is measured.

Every workload is a closed loop: a fixed window of operations is in
flight, and the next one is sent only when one completes.
"""

from __future__ import annotations

import asyncio
import random
import string
import time
import xml.etree.ElementTree as ET

from oracles import (
    MSGBOX_NS,
    Q_ADDRESS,
    Q_BODY,
    Q_MSGID,
    Q_REPLYTO,
    MailboxOracle,
    OneWayOracle,
    RpcOracle,
    header_text,
    rpc_text,
)

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
WSA_NS = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
ENVELOPE_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    f'<soapenv:Envelope xmlns:soapenv="{SOAP_NS}" xmlns:wsa="{WSA_NS}"'
    f' xmlns:mb="{MSGBOX_NS}" xmlns:e="urn:repro:echo">'
)
ACCEPTED = b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n"
#: payload strings drawn per seed; operations pick among them
BODY_POOL = 8
#: length of the seeded operation schedule (logical service, body) pairs
SCHEDULE = 4096
#: seconds to wait after the window for the last operations to complete
DRAIN_TIMEOUT = 20.0


def post(path: str, body: bytes) -> bytes:
    return (
        b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n"
        % (path.encode(), len(body))
    ) + body


def ok_xml(body: bytes) -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


async def read_message(reader: asyncio.StreamReader) -> tuple[bytes, bytes]:
    """One HTTP/1.1 message with a Content-Length body: (start line, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head[:-4].split(b"\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == b"transfer-encoding":
            raise ValueError("chunked framing is not expected from the front")
    body = await reader.readexactly(length) if length else b""
    return lines[0], body


class Conn:
    """A client connection; responses arrive in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    def send(self, data: bytes) -> None:
        self.writer.write(data)

    async def response(self) -> tuple[int, bytes]:
        start, body = await read_message(self.reader)
        return int(start.split(b" ", 2)[1]), body

    async def exchange(self, data: bytes) -> tuple[int, bytes]:
        self.send(data)
        return await self.response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class Server:
    """A sink/stub HTTP server: ``app(url, body) -> response bytes``, where
    ``url`` is the full URL the request was posted to."""

    def __init__(self, app) -> None:
        self.app = app
        self.handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> int:
        self.server = await asyncio.start_server(self.on_conn, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        self.base = f"http://127.0.0.1:{self.port}"
        return self.port

    async def on_conn(self, reader, writer) -> None:
        self.handlers[asyncio.current_task()] = writer
        try:
            while True:
                start, body = await read_message(reader)
                writer.write(self.app(self.base + start.split(b" ", 2)[1].decode(), body))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        """Stop listening and end every connection handler."""
        self.server.close()
        for writer in self.handlers.values():
            writer.transport.abort()
        await asyncio.gather(*self.handlers, return_exceptions=True)
        await self.server.wait_closed()


def seeded_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_letters + string.digits, k=length))


class Stats:
    """Completions of the current phase, on the load process's clock."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.done = 0
        self.started = 0

    def complete(self, t_sent: float) -> None:
        self.latencies.append(time.perf_counter() - t_sent)
        self.done += 1


class Workload:
    """Shared closed-loop machinery; subclasses add the traffic."""

    runtime = "rt"
    window = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.servers: list[Server] = []
        self.stats = Stats()
        self.slot = asyncio.Event()
        self.inflight = 0
        self.serial = 0

    async def start_servers(self) -> None:
        raise NotImplementedError

    def services(self) -> dict[str, str]:
        raise NotImplementedError

    async def connect(self, port: int) -> None:
        raise NotImplementedError

    async def disconnect(self) -> None:
        raise NotImplementedError

    def next_id(self) -> str:
        self.serial += 1
        return f"urn:uuid:perfbench-{self.seed}-{self.serial}"

    def release(self) -> None:
        self.inflight -= 1
        self.slot.set()

    async def drained(self, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while self.inflight > 0 and time.perf_counter() < deadline:
            self.slot.clear()
            try:
                await asyncio.wait_for(self.slot.wait(), 0.5)
            except asyncio.TimeoutError:
                pass
        return self.inflight == 0

    async def phase(self, seconds: float) -> Stats:
        """Run the closed loop for ``seconds``, then wait for the tail."""
        self.stats = Stats()
        deadline = time.perf_counter() + seconds
        # wakes a sender blocked on a full window when the phase ends
        timer = asyncio.get_running_loop().call_later(seconds, self.slot.set)
        try:
            await self.send_until(deadline)
        finally:
            timer.cancel()
        await self.drained(DRAIN_TIMEOUT)
        return self.stats

    async def send_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.inflight >= self.window:
                self.slot.clear()
                await self.slot.wait()
                continue
            self.inflight += 1
            self.stats.started += 1
            self.send_one()
            await asyncio.sleep(0)

    def send_one(self) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        """Close the sinks and stubs (each session disconnects itself)."""
        for server in self.servers:
            await server.close()

    async def read_accepts(self, conn: Conn) -> None:
        """Consume the front's 202 answers on a one-way connection."""
        try:
            while True:
                status, _ = await conn.response()
                if status != 202:
                    self.oracle.fail(None, f"front answered a one-way post with {status}")
        except (asyncio.IncompleteReadError, ConnectionError):
            pass


class OneWay(Workload):
    """One-way echo messages, no ReplyTo, to a seeded mix of logical
    services on three sink endpoints; a window of messages is in flight
    between the send and the arrival at the sink."""

    LOGICAL = [f"svc{i}" for i in range(6)]
    SINKS = 3

    def __init__(self, seed: int, text_bytes: int) -> None:
        super().__init__(seed)
        texts = [seeded_text(self.rng, text_bytes) for _ in range(BODY_POOL)]
        self.schedule = [
            (self.rng.randrange(len(self.LOGICAL)), self.rng.randrange(BODY_POOL))
            for _ in range(SCHEDULE)
        ]
        self.heads = [
            (
                ENVELOPE_OPEN + f"<soapenv:Header><wsa:To>urn:wsd:{name}</wsa:To>"
                "<wsa:Action>urn:repro:echo/echo</wsa:Action><wsa:MessageID>"
            ).encode()
            for name in self.LOGICAL
        ]
        body_xml = [
            f"<soapenv:Body><e:echo><text>{t}</text></e:echo></soapenv:Body>"
            for t in texts
        ]
        self.tails = [
            f"</wsa:MessageID></soapenv:Header>{b}</soapenv:Envelope>".encode()
            for b in body_xml
        ]
        self.expected_bodies = [
            ET.fromstring(ENVELOPE_OPEN + b + "</soapenv:Envelope>").find(Q_BODY)
            for b in body_xml
        ]
        self.sent_at: dict[str, float] = {}

    async def start_servers(self) -> None:
        ports = []
        for _ in range(self.SINKS):
            server = Server(self.on_delivery)
            self.servers.append(server)
            ports.append(await server.start())
        self.physical = {
            name: f"http://127.0.0.1:{ports[i % self.SINKS]}/sink/{name}"
            for i, name in enumerate(self.LOGICAL)
        }

    def services(self) -> dict[str, str]:
        return self.physical

    async def connect(self, port: int) -> None:
        self.oracle = OneWayOracle(self.physical, self.expected_bodies)
        self.conn = await Conn.open(port)
        self.reader_task = asyncio.ensure_future(self.read_accepts(self.conn))

    async def disconnect(self) -> None:
        await self.conn.close()
        await self.reader_task

    def send_one(self) -> None:
        svc, body = self.schedule[self.serial % SCHEDULE]
        mid = self.next_id()
        name = self.LOGICAL[svc]
        self.oracle.sent(mid, name, body)
        self.sent_at[mid] = time.perf_counter()
        self.conn.send(post(f"/msg/{name}", self.heads[svc] + mid.encode() + self.tails[body]))

    def on_delivery(self, url: str, body: bytes) -> bytes:
        mid = self.oracle.arrived(url, body)
        t_sent = self.sent_at.pop(mid, None) if mid else None
        if t_sent is not None:
            self.stats.complete(t_sent)
            self.release()
        return ACCEPTED

    def unfinished(self) -> int:
        return len(self.sent_at)


class MailboxRtt(Workload):
    """The firewalled-client choreography on the aio front: requests with
    ReplyTo set to the client's own mailbox, replies sent back through
    the dispatcher by the echo stub, taken by a long poll."""

    runtime = "aio"
    LOGICAL = "echo-mbx"

    def __init__(self, seed: int, text_bytes: int = 43) -> None:
        super().__init__(seed)
        self.texts = [seeded_text(self.rng, text_bytes) for _ in range(BODY_POOL)]
        self.schedule = [self.rng.randrange(BODY_POOL) for _ in range(SCHEDULE)]
        self.sent_at: dict[str, float] = {}
        self.want_take = asyncio.Event()

    async def start_servers(self) -> None:
        server = Server(self.on_request)
        self.servers.append(server)
        port = await server.start()
        self.physical = {self.LOGICAL: f"http://127.0.0.1:{port}/stub/{self.LOGICAL}"}

    def services(self) -> dict[str, str]:
        return self.physical

    async def connect(self, port: int) -> None:
        self.conn = await Conn.open(port)
        self.poll_conn = await Conn.open(port)
        create = (
            ENVELOPE_OPEN + "<soapenv:Body><mb:create/></soapenv:Body></soapenv:Envelope>"
        ).encode()
        status, body = await self.poll_conn.exchange(post("/mailbox", create))
        root = ET.fromstring(body)
        wrapper = root.find(Q_BODY).find(f"{{{MSGBOX_NS}}}createResponse")
        if status != 200 or wrapper is None:
            raise RuntimeError(f"mailbox create failed with HTTP {status}")
        self.mailbox_id = wrapper.findtext("mailboxId")
        deposit = wrapper.findtext("depositAddress")
        self.oracle = MailboxOracle(self.mailbox_id)
        self.reply_to = (
            f"<wsa:ReplyTo><wsa:Address>{deposit}</wsa:Address><wsa:ReferenceProperties>"
            f"<mb:MailboxId>{self.mailbox_id}</mb:MailboxId></wsa:ReferenceProperties>"
            "</wsa:ReplyTo>"
        )
        self.take_request = post(
            "/mailbox",
            (
                ENVELOPE_OPEN + "<soapenv:Body><mb:take>"
                f"<mailboxId>{self.mailbox_id}</mailboxId>"
                f"<maxMessages>{self.window}</maxMessages><waitSeconds>5</waitSeconds>"
                "</mb:take></soapenv:Body></soapenv:Envelope>"
            ).encode(),
        )
        self.reader_task = asyncio.ensure_future(self.read_accepts(self.conn))
        self.taker_task = asyncio.ensure_future(self.taker())

    async def disconnect(self) -> None:
        self.taker_task.cancel()
        try:
            await self.taker_task
        except asyncio.CancelledError:
            pass
        await self.poll_conn.close()
        await self.conn.close()
        await self.reader_task

    def send_one(self) -> None:
        text = self.texts[self.schedule[self.serial % SCHEDULE]]
        mid = self.next_id()
        self.oracle.sent(mid, text)
        self.sent_at[mid] = time.perf_counter()
        message = (
            ENVELOPE_OPEN + f"<soapenv:Header><wsa:To>urn:wsd:{self.LOGICAL}</wsa:To>"
            f"<wsa:Action>urn:repro:echo/echo</wsa:Action><wsa:MessageID>{mid}</wsa:MessageID>"
            f"{self.reply_to}</soapenv:Header><soapenv:Body><e:echo><text>{text}</text>"
            "</e:echo></soapenv:Body></soapenv:Envelope>"
        )
        self.conn.send(post(f"/msg/{self.LOGICAL}", message.encode()))
        self.want_take.set()

    def on_request(self, url: str, body: bytes) -> bytes:
        """The echo stub: answer 202, send the reply as a new message."""
        root = ET.fromstring(body)
        mid = header_text(root, Q_MSGID)
        reply_to = root.find(f"{{{SOAP_NS}}}Header").find(Q_REPLYTO)
        address = reply_to.findtext(Q_ADDRESS).strip()
        text = rpc_text(root, "echo", "text")
        reply = (
            ENVELOPE_OPEN + f"<soapenv:Header><wsa:To>{address}</wsa:To>"
            "<wsa:Action>urn:repro:echo/echoResponse</wsa:Action>"
            f"<wsa:MessageID>{mid}-reply</wsa:MessageID><wsa:RelatesTo>{mid}</wsa:RelatesTo>"
            "</soapenv:Header><soapenv:Body><e:echoResponse>"
            f"<return>{text}</return></e:echoResponse></soapenv:Body></soapenv:Envelope>"
        )
        self.conn.send(post("/" + address.split("/", 3)[3], reply.encode()))
        return ACCEPTED

    async def taker(self) -> None:
        while True:
            while not self.sent_at:
                self.want_take.clear()
                await self.want_take.wait()
            status, body = await self.poll_conn.exchange(self.take_request)
            if status != 200:
                self.oracle.fail(None, f"take answered with HTTP {status}")
                continue
            for mid in self.oracle.taken(body):
                t_sent = self.sent_at.pop(mid, None)
                if t_sent is not None:
                    self.stats.complete(t_sent)
                    self.release()

    def unfinished(self) -> int:
        return len(self.sent_at)


class RpcEcho(Workload):
    """Synchronous SOAP-RPC echo through the RPC-Dispatcher: two callers,
    each on its own connection, each waiting for its reply."""

    LOGICAL = "echo-rpc"
    window = 2

    def __init__(self, seed: int, text_bytes: int = 43) -> None:
        super().__init__(seed)
        self.texts = [seeded_text(self.rng, text_bytes) for _ in range(BODY_POOL)]
        self.schedule = [self.rng.randrange(BODY_POOL) for _ in range(SCHEDULE)]
        self.requests = [
            post(
                f"/rpc/{self.LOGICAL}",
                (
                    ENVELOPE_OPEN + f"<soapenv:Body><e:echo><text>{t}</text></e:echo>"
                    "</soapenv:Body></soapenv:Envelope>"
                ).encode(),
            )
            for t in self.texts
        ]
        self.pending = 0

    async def start_servers(self) -> None:
        server = Server(self.on_request)
        self.servers.append(server)
        port = await server.start()
        self.physical = {self.LOGICAL: f"http://127.0.0.1:{port}/stub/{self.LOGICAL}"}

    def services(self) -> dict[str, str]:
        return self.physical

    async def connect(self, port: int) -> None:
        self.oracle = RpcOracle()
        self.conns = [await Conn.open(port) for _ in range(self.window)]

    async def disconnect(self) -> None:
        for conn in self.conns:
            await conn.close()

    def on_request(self, url: str, body: bytes) -> bytes:
        text = rpc_text(ET.fromstring(body), "echo", "text")
        return ok_xml(
            (
                ENVELOPE_OPEN + "<soapenv:Body><e:echoResponse>"
                f"<return>{text}</return></e:echoResponse></soapenv:Body></soapenv:Envelope>"
            ).encode()
        )

    async def phase(self, seconds: float) -> Stats:
        self.stats = Stats()
        deadline = time.perf_counter() + seconds
        await asyncio.gather(*(self.caller(c, deadline) for c in self.conns))
        return self.stats

    async def caller(self, conn: Conn, deadline: float) -> None:
        while time.perf_counter() < deadline:
            index = self.schedule[self.serial % SCHEDULE]
            self.serial += 1
            self.stats.started += 1
            self.pending += 1
            t_sent = time.perf_counter()
            status, body = await conn.exchange(self.requests[index])
            self.pending -= 1
            if self.oracle.response(status, body, self.texts[index]):
                self.stats.complete(t_sent)

    def unfinished(self) -> int:
        return self.pending


WORKLOADS = {
    "oneway-0k5": lambda seed: OneWay(seed, text_bytes=43),
    "oneway-64k": lambda seed: OneWay(seed, text_bytes=64 * 1024),
    "mailbox-rtt": MailboxRtt,
    "rpc-echo": RpcEcho,
}
