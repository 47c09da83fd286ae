"""A forwarding communicator that records a span around every collective.

The rank programs pass this proxy to the layers in place of the comm the
machine handed them, so every collective the p4est, amr, mangll and apps
layers make shows up as a ``parallel.<method>`` child of the layer span
that made it.  Counts and bytes are left to the wrapped comm's own
:class:`~repro.parallel.stats.CommStats`, which stay exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.parallel import SUM, Comm

from perfbench.spans import Recorder


class SpannedComm(Comm):
    def __init__(self, inner: Comm, rec: Recorder) -> None:
        self.inner = inner
        self.rec = rec
        self.rank = inner.rank
        self.size = inner.size
        self.stats = inner.stats

    def _call(self, name: str, *args: Any) -> Any:
        return self.rec.call("parallel." + name, getattr(self.inner, name), *args)

    def barrier(self) -> None:
        self._call("barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return self._call("bcast", obj, root)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        return self._call("gather", obj, root)

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        return self._call("scatter", objs, root)

    def allgather(self, obj: Any) -> List[Any]:
        return self._call("allgather", obj)

    def allreduce(self, value: Any, op: Any = SUM) -> Any:
        return self._call("allreduce", value, op)

    def exscan(self, value: Any, op: Any = SUM) -> Any:
        return self._call("exscan", value, op)

    def scan(self, value: Any, op: Any = SUM) -> Any:
        return self._call("scan", value, op)

    def alltoall(self, objs: List[Any]) -> List[Any]:
        return self._call("alltoall", objs)

    def exchange(self, outbox: Dict[int, Any]) -> Dict[int, Any]:
        return self._call("exchange", outbox)

    def reduce(self, value: Any, op: Any = SUM, root: int = 0) -> Any:
        return self._call("reduce", value, op, root)
