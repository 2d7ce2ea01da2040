"""The benchmark's two workloads: the served epoch and the gateway delivery.

Each workload builds its program objects through public entry points,
runs one *op* per :meth:`Workload.op` call, and afterwards checks every op's
outputs against properties computed from the inputs it generated
(:mod:`checks`).  An op's inputs depend only on the seed and on the op's
slot in a fixed round (``op index % round_size``), so every run repeats
whole rounds of the same operations; half of a round's slots take the cheap
checkpoint alignment and half the costly one (:mod:`inputs`).

* ``serve-asyncio`` — one :meth:`OracleService.run_epoch` on the asyncio
  engine per op (n=7, bitcoin calibration, churn 1, fast-engine parity);
* ``gateway-ticks`` — one closed-loop client round per op: POST 1,000
  ticks, serve one epoch, receive its certificate on a WebSocket.
"""

from __future__ import annotations

import asyncio
import statistics
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parameters import derive_parameters
from repro.core import bundling, delphi
from repro.crypto.signatures import SignatureScheme
from repro.net.message import Message
from repro.oracle.clients import GatewaySubscriber, http_request
from repro.oracle.gateway import OracleGateway, build_gateway
from repro.oracle.service import OracleService
from repro.oracle.smr import SMRChannel
from repro.protocols.base import MessageWrapper
from repro.protocols.binaa import BinAAEngine
from repro.sim.asyncio_runtime import AsyncioRuntime
from repro.workloads.ticks import TickBufferWorkload

import checks
import inputs
from layers import LayerProfile

#: Seed of the served workloads' own network models (the parity replay's
#: and the gateway's simulated networks): fixed, so that the benchmark seed
#: varies only the inputs.
SERVICE_SEED = 1

#: Problems found per op index, and for the run as a whole.
Findings = Tuple[Dict[int, List[str]], List[str]]


class Workload:
    name = ""
    round_size = 1
    #: Seconds one untraced round takes on the reference box (2-core
    #: shared host); a run of ``--seconds`` does that many seconds' worth
    #: of whole rounds, a fixed count whatever the speed of the machine.
    round_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """Construct the program objects the ops use."""

    def warm_up(self) -> None:
        """One untimed op, so lazy imports and first-use caches are filled."""

    def begin_window(self) -> None:
        """Called just before the timed window opens."""

    def op(self, index: int) -> None:
        raise NotImplementedError

    def end_window(self, on_workers: Optional[Callable[[], None]]) -> None:
        """Called when the timed window closes; ``on_workers`` (traced runs)
        must run once on each worker thread the program used."""

    def findings(self, ops: int) -> Findings:
        raise NotImplementedError

    def layer_metrics(self, profile: LayerProfile, ops: int, op_ms: Sequence[float]) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release sockets, loops and threads."""


#: Functions whose profiled call counts and times are per-layer metrics.
ENCODE = bundling.encode_bundle_sized
DECODE = bundling.decode_bundle
DELPHI_ON_MESSAGE = delphi.DelphiNode.on_message
BINAA_HANDLE = BinAAEngine.handle
WRAP = MessageWrapper.__call__
UNWRAP = MessageWrapper.unwrap
MESSAGE_INIT = Message.__init__
SIZE_BITS = Message.size_bits
SIGN = SignatureScheme.sign
VERIFY = SignatureScheme.verify
VERIFY_AGGREGATE = SignatureScheme.verify_aggregate
DISPATCH = AsyncioRuntime._dispatch
SUBMIT = SMRChannel.submit
TICKS_PUSH = TickBufferWorkload.push
TICKS_DRAW = TickBufferWorkload.epoch_inputs
PUBLISH = OracleGateway.publish
CONSUME_CERTIFICATE = OracleService._consume_certificate
RUN_EPOCH = OracleService.run_epoch


def _common_layers(profile: LayerProfile, ops: int) -> Dict[str, float]:
    """Per-op metrics of the layers every workload can reach."""
    per_op = 1.0 / ops
    encodes = profile.calls(ENCODE)
    decodes = profile.calls(DECODE)
    return {
        "sim.fastpath.self_ms": profile.layer_ms(["sim.fastpath"]) * per_op,
        "sim.asyncio_runtime.dispatch_calls": profile.calls(DISPATCH) * per_op,
        "sim.asyncio_runtime.self_ms": profile.layer_ms(["sim.asyncio_runtime"]) * per_op,
        "net.messages": profile.calls(MESSAGE_INIT) * per_op,
        "net.size_calls": profile.calls(SIZE_BITS) * per_op,
        "net.self_ms": profile.layer_ms(["net.message", "net.network", "net.latency", "net.bandwidth"]) * per_op,
        "core.bundling.encode_calls": encodes * per_op,
        "core.bundling.decode_calls": decodes * per_op,
        "core.bundling.decodes_per_encode": decodes / encodes if encodes else 0.0,
        "core.bundling.self_ms": profile.layer_ms(["core.bundling"]) * per_op,
        "core.delphi.on_message_calls": profile.calls(DELPHI_ON_MESSAGE) * per_op,
        "core.delphi.self_ms": profile.layer_ms(["core.delphi"]) * per_op,
        "core.checkpoints.self_ms": profile.layer_ms(["core.checkpoints"]) * per_op,
        "protocols.binaa.handle_calls": profile.calls(BINAA_HANDLE) * per_op,
        "protocols.binaa.self_ms": profile.layer_ms(["protocols.binaa"]) * per_op,
        "protocols.base.wrap_calls": profile.calls(WRAP) * per_op,
        "protocols.base.unwrap_calls": profile.calls(UNWRAP) * per_op,
        "protocols.base.self_ms": profile.layer_ms(["protocols.base"]) * per_op,
        "core.dora.self_ms": profile.layer_ms(["core.dora"]) * per_op,
        "crypto.sign_calls": profile.calls(SIGN) * per_op,
        "crypto.verify_calls": profile.calls(VERIFY, VERIFY_AGGREGATE) * per_op,
        "crypto.self_ms": profile.layer_ms(["crypto"]) * per_op,
        "oracle.smr.submit_calls": profile.calls(SUBMIT) * per_op,
        "workloads.ticks.push_ms": profile.cumulative_ms(TICKS_PUSH) * per_op,
        "net.http_ws.self_ms": profile.layer_ms(["net.http_ws"]) * per_op,
        "oracle.gateway.publish_ms": profile.cumulative_ms(PUBLISH) * per_op,
    }


# ----------------------------------------------------------------------
class QuoteFeed:
    """Epoch feed handing the service the benchmark's generated quotes."""

    def __init__(self, rounds: List[List[float]]) -> None:
        self.rounds = rounds
        self.drawn = 0

    def epoch_inputs(self, num_nodes: int) -> List[float]:
        quotes = self.rounds[self.drawn % len(self.rounds)]
        self.drawn += 1
        return list(quotes[:num_nodes])


def epoch_problems(params, report, expected_epoch: int, quotes: Sequence[float], offline: Sequence[int]) -> List[str]:
    """Checks of one served epoch against the quotes it was fed."""
    online = [node for node in range(params.n) if node not in offline]
    honest_inputs = [quotes[node] for node in online]
    hull = checks.relaxed_hull(honest_inputs, params.rho0, params.epsilon)
    problems = []
    if report.epoch != expected_epoch:
        problems.append(f"served epoch {report.epoch}, expected {expected_epoch}")
    if tuple(report.offline_nodes) != tuple(offline):
        problems.append(f"offline nodes {report.offline_nodes}, expected {tuple(offline)}")
    if report.input_range != max(honest_inputs) - min(honest_inputs):
        problems.append("epoch was not fed the generated inputs")
    problems += checks.check_agreement(report.honest_outputs, online, params.epsilon)
    problems += checks.check_in_hull([report.value, *report.honest_outputs.values()], hull)
    problems += checks.check_signers(list(report.certificate.aggregate.signers), params.t, offline)
    return problems


class ServeAsyncio(Workload):
    """One served epoch per op, as ``repro serve --engine asyncio`` runs it."""

    name = "serve-asyncio"
    n = 7
    churn = 1
    #: One round visits every pair of churn position and alignment once
    #: (7 and 2 are coprime).
    round_size = 2 * n
    round_seconds = 4.7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.quotes = inputs.quote_epochs(seed, self.round_size, self.n)
        self.reports: Dict[int, Any] = {}

    def build(self) -> None:
        self.params = derive_parameters(n=self.n, epsilon=2.0, rho0=10.0, delta_max=2000.0, max_rounds=6)
        self.feed = QuoteFeed(self.quotes)
        self.service = OracleService(
            self.params,
            self.feed,
            engine="asyncio",
            seed=SERVICE_SEED,
            churn=self.churn,
            parity_engine="fast",
            workload_name="bitcoin",
        )
        self.epoch0 = 0

    def warm_up(self) -> None:
        self.service.run_epoch()
        self.epoch0 = 1

    def op(self, index: int) -> None:
        self.reports[index] = self.service.run_epoch()

    def _offline(self, epoch: int) -> Tuple[int, ...]:
        return tuple(sorted((epoch * self.churn + k) % self.n for k in range(self.churn)))

    def findings(self, ops: int) -> Findings:
        per_op: Dict[int, List[str]] = {}
        for index, report in self.reports.items():
            epoch = self.epoch0 + index
            problems = epoch_problems(
                self.params, report, epoch, self.quotes[epoch % self.round_size], self._offline(epoch)
            )
            if report.parity not in ("exact", "schedule"):
                problems.append(f"epoch {epoch} carries no parity verdict ({report.parity!r})")
            per_op[index] = problems
        return per_op, []

    def layer_metrics(self, profile: LayerProfile, ops: int, op_ms: Sequence[float]) -> Dict[str, float]:
        metrics = _common_layers(profile, ops)
        reports = list(self.reports.values())
        wall_ms = statistics.fmean(r.wall_seconds for r in reports) * 1000.0
        draw_ms = profile.cumulative_ms(QuoteFeed.epoch_inputs) / ops
        attest_ms = profile.cumulative_ms(CONSUME_CERTIFICATE, RUN_EPOCH) / ops
        metrics.update({
            "sim.events": statistics.fmean(r.events_processed for r in reports),
            "oracle.service.draw_ms": draw_ms,
            "oracle.service.agree_ms": wall_ms - attest_ms,
            "oracle.service.attest_ms": attest_ms,
            "oracle.service.parity_ms": statistics.fmean(op_ms) - wall_ms - draw_ms,
        })
        return metrics


# ----------------------------------------------------------------------
class GatewayTicks(Workload):
    """One closed-loop client round per op against a live gateway."""

    name = "gateway-ticks"
    n = 7
    batch_size = 1000
    round_size = 6
    round_seconds = 1.9
    #: Seconds a client waits for a certificate before declaring it lost.
    recv_timeout = 30.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.batches = inputs.tick_batches(seed, self.round_size, self.batch_size, self.n)
        self.rounds: Dict[int, Tuple[int, Any, List[Any], Any]] = {}
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.subscriber: Optional[GatewaySubscriber] = None
        self.gateway: Optional[OracleGateway] = None

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def _new_executor(self) -> None:
        # One epoch worker thread; the client side uses the loop thread.
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="epoch")
        self.loop.set_default_executor(self.executor)

    def build(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._new_executor()
        self.gateway = build_gateway("bitcoin", self.n, seed=SERVICE_SEED)
        self.params = self.gateway.service.params
        self.host, self.port = self._run(self.gateway.start())
        self.subscriber = GatewaySubscriber(self.host, self.port, timeout=self.recv_timeout)
        self._run(self.subscriber.connect())
        self.received: List[dict] = []
        self.served = 0

    async def _round(self, batch: List[float]):
        status, body = await http_request(self.host, self.port, "POST", "/ticks", {"values": batch})
        reports = await self.gateway.run_epochs(1)
        certificate = await self.subscriber.recv(timeout=self.recv_timeout)
        return status, body, reports, certificate

    def _op(self, index: int) -> Tuple[int, Any, List[Any], Any]:
        result = self._run(self._round(self.batches[index % self.round_size]))
        self.served += 1
        if result[3] is not None:
            self.received.append(result[3])
        return result

    def warm_up(self) -> None:
        self._op(0)

    def begin_window(self) -> None:
        # A fresh worker thread, started inside the window, so that a
        # profiler armed for new threads covers the epoch worker.
        old = self.executor
        self._new_executor()
        old.shutdown(wait=True)
        _status, self.metrics_before = self._run(http_request(self.host, self.port, "GET", "/metrics"))

    def op(self, index: int) -> None:
        self.rounds[index] = self._op(index)

    def end_window(self, on_workers: Optional[Callable[[], None]]) -> None:
        if on_workers is not None:
            self._run(self.loop.run_in_executor(None, on_workers))
        _status, self.metrics_after = self._run(http_request(self.host, self.port, "GET", "/metrics"))

    def findings(self, ops: int) -> Findings:
        per_op: Dict[int, List[str]] = {}
        epoch0 = self.served - len(self.rounds)
        for index, (status, body, reports, certificate) in self.rounds.items():
            epoch = epoch0 + index
            batch = self.batches[index % self.round_size]
            problems = []
            if status != 200 or body != {"received": len(batch), "accepted": len(batch)}:
                problems.append(f"tick batch not fully accepted: {status} {body}")
            if len(reports) != 1:
                problems.append(f"{len(reports)} epochs served for one request")
            else:
                problems += epoch_problems(self.params, reports[0], epoch, batch[-self.n:], ())
                if certificate is None or certificate.get("epoch") != epoch or certificate.get("value") != reports[0].value:
                    problems.append(f"subscriber got {certificate!r} for epoch {epoch}")
            per_op[index] = problems
        run_problems = self._stream_problems()
        return per_op, run_problems

    def _stream_problems(self) -> List[str]:
        problems = []
        try:
            extra = self._run(self.subscriber.recv(timeout=0.2))
        except asyncio.TimeoutError:
            extra = None
        if extra is not None:
            self.received.append(extra)
        problems += checks.check_stream(
            [cert.get("epoch") for cert in self.received], list(range(self.served))
        )
        status, latest = self._run(http_request(self.host, self.port, "GET", "/certs/latest"))
        if status != 200 or not self.received or latest != self.received[-1]:
            problems.append(f"/certs/latest {latest!r} is not the last certificate received")
        ticks = self.metrics_after.get("ticks", {})
        if ticks.get("epochs_from_ticks") != self.served or ticks.get("epochs_from_feed") != 0:
            problems.append(f"not every epoch was fed from ticks: {ticks}")
        return problems

    def layer_metrics(self, profile: LayerProfile, ops: int, op_ms: Sequence[float]) -> Dict[str, float]:
        metrics = _common_layers(profile, ops)
        before, after = self.metrics_before, self.metrics_after
        reports = [r for _s, _b, rs, _c in self.rounds.values() for r in rs]
        wall_ms = statistics.fmean(r.wall_seconds for r in reports) * 1000.0
        attest_ms = profile.cumulative_ms(CONSUME_CERTIFICATE, RUN_EPOCH) / ops
        metrics.update({
            "sim.events": statistics.fmean(r.events_processed for r in reports),
            "oracle.service.draw_ms": profile.cumulative_ms(TICKS_DRAW) / ops,
            "oracle.service.agree_ms": wall_ms - attest_ms,
            "oracle.service.attest_ms": attest_ms,
            "workloads.ticks.accepted": (after["ticks"]["accepted"] - before["ticks"]["accepted"]) / ops,
            "workloads.ticks.rejected": (after["ticks"]["rejected"] - before["ticks"]["rejected"]) / ops,
            "oracle.gateway.deliver_p50_ms": after["delivery_latency"]["p50_ms"] or 0.0,
            # The /metrics request that took ``after`` counted itself.
            "oracle.gateway.requests": (after["requests_served"] - before["requests_served"] - 1) / ops,
            "oracle.gateway.evictions": float(after["evictions"]),
        })
        return metrics

    def close(self) -> None:
        if self.loop is None:
            return
        if self.subscriber is not None:
            self._run(self.subscriber.close())
        if self.gateway is not None:
            self._run(self.gateway.close())
        self._run(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None


WORKLOADS = {cls.name: cls for cls in (ServeAsyncio, GatewayTicks)}
