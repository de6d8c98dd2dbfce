"""The front process the benchmark measures: one WS-Dispatcher host.

Assembled the way ``examples/quickstart.py`` assembles it — registry,
MSG-Dispatcher, RPC-Dispatcher and WS-MsgBox behind one HTTP server,
with the introspection pages mounted — but over real loopback TCP and
with every knob at its library default except addresses.

Two runtimes:

- ``rt``: the threaded ``HttpServer`` + ``MsgDispatcher`` + ``MsgBoxService``;
- ``aio``: the same components on one event loop (``AioHttpServer`` +
  ``AioMsgDispatcher`` + ``AioMsgBoxService`` + ``AioHttpClient``).

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/front.py --runtime rt|aio --services JSON [--trace 1]

``--services`` is a JSON object ``{logical: physical_url}`` registered in
the registry.  Once the server listens the process prints ``PORT <n>``
on stdout.  With ``--trace 1`` the layer wrappers of ``tracer.py`` are
installed before the stack is built, and ``GET /perfbench/trace?op=reset``
/ ``?op=dump&spans=<file>`` reset and read the per-layer books.  The
process serves until SIGTERM or until stdin closes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def build_app(registry, msg_dispatcher, rpc_dispatcher, msgbox, extra_pages):
    """One HTTP handler: ``/rpc/*`` to the RPC-Dispatcher, the rest to
    the SOAP app (``/msg``, ``/mailbox``, introspection pages)."""
    from repro.obs.http import Introspection
    from repro.rt import SoapHttpApp

    app = SoapHttpApp()
    app.mount("/msg", msg_dispatcher)
    app.mount("/mailbox", msgbox)
    intro = Introspection()
    intro.add_source("msg-dispatcher", lambda: msg_dispatcher.stats)
    intro.add_source("rpc-dispatcher", lambda: rpc_dispatcher.stats)
    intro.add_source("msgbox", lambda: msgbox.stats)
    intro.add_source("registry", lambda: registry.stats)
    intro.add_health_source("msg-dispatcher", msg_dispatcher.health_snapshot)
    intro.mount(app)
    for path, handler in extra_pages.items():
        app.mount_page(path, handler)

    def front_door(request, peer=None):
        if request.target.startswith("/rpc"):
            return rpc_dispatcher.handle_request(request, peer)
        return app.handle_request(request, peer)

    return front_door


def register(services: dict):
    from repro.core import ServiceRegistry

    registry = ServiceRegistry()
    for logical, physical in services.items():
        registry.register(logical, physical)
    return registry


def serve_rt(services: dict, pages: dict, tracer) -> None:
    from repro.core import MsgDispatcher, RpcDispatcher
    from repro.msgbox import MailboxStore, MsgBoxService
    from repro.rt import HttpClient, HttpServer
    from repro.transport.tcp import TcpConnector, TcpListener

    listener = TcpListener("127.0.0.1:0")
    connector = TcpConnector()
    if tracer is not None:
        listener, connector = tracer.wrap_listener(listener), tracer.wrap_connector(connector)
    base = f"http://127.0.0.1:{listener.endpoint.port}"
    registry = register(services)
    client = HttpClient(connector)
    msgd = MsgDispatcher(registry, client, own_address=f"{base}/msg")
    rpcd = RpcDispatcher(registry, client)
    msgbox = MsgBoxService(MailboxStore(), base_url=f"{base}/mailbox")
    server = HttpServer(listener, build_app(registry, msgd, rpcd, msgbox, pages))
    server.start()
    announce(listener.endpoint.port)
    wait_for_exit()
    msgd.stop()
    server.stop()
    client.close()


def serve_aio(services: dict, pages: dict, tracer) -> None:
    import asyncio

    from repro.aio import AioHttpClient, AioHttpServer, AioMsgBoxService, AioMsgDispatcher
    from repro.core import RpcDispatcher
    from repro.msgbox import MailboxStore
    from repro.rt import HttpClient
    from repro.transport.tcp import TcpConnector

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        holder: dict = {}

        def handler(request, peer=None):
            return holder["door"](request, peer)

        server = AioHttpServer(handler)
        await server.start()
        port = server.endpoint.port
        base = f"http://127.0.0.1:{port}"
        registry = register(services)
        client = AioHttpClient()
        msgd = AioMsgDispatcher(registry, client, own_address=f"{base}/msg")
        # mounted for a like-for-like front; no aio workload calls it
        rpcd = RpcDispatcher(registry, HttpClient(TcpConnector()))
        msgbox = AioMsgBoxService(MailboxStore(), base_url=f"{base}/mailbox")
        holder["door"] = build_app(registry, msgd, rpcd, msgbox, pages)
        announce(port)
        threading.Thread(
            target=lambda: (wait_for_exit(), loop.call_soon_threadsafe(stop.set)),
            daemon=True,
        ).start()
        await stop.wait()
        await loop.run_in_executor(None, msgd.stop)
        await server.stop()
        client.close()

    asyncio.run(main())


def announce(port: int) -> None:
    sys.stdout.write(f"PORT {port}\n")
    sys.stdout.flush()


_EXIT = threading.Event()


def wait_for_exit() -> None:
    """Block until SIGTERM or until the parent closes our stdin."""

    def watch_stdin() -> None:
        try:
            sys.stdin.buffer.read()
        finally:
            _EXIT.set()

    threading.Thread(target=watch_stdin, daemon=True).start()
    _EXIT.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runtime", choices=("rt", "aio"), required=True)
    ap.add_argument("--services", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: _EXIT.set())
    tracer = None
    pages: dict = {}
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(aio=args.runtime == "aio")
        pages["/perfbench/trace"] = tracer.page_handler
    services = json.loads(args.services)
    if args.runtime == "rt":
        serve_rt(services, pages, tracer)
    else:
        serve_aio(services, pages, tracer)
    sys.stdout.flush()
    os._exit(0)  # daemon pool threads may still sit in blocking recv


if __name__ == "__main__":
    sys.exit(main())
