"""Client-side convenience: blocking calls over the future-based API.

:class:`ServiceClient` wraps a :class:`~repro.service.server.SolveService`
in a blocking call-per-solve API for callers that do not want to manage
futures.  (Open-loop load generation lives in
:func:`repro.workload.run_workload`, the one runner ``python -m repro
serve`` drives in both of its modes.)
"""

from __future__ import annotations

from repro.service.api import SolveRequest, SolveResponse

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking facade over a running :class:`SolveService`."""

    def __init__(self, service):
        self.service = service

    def solve(self, matrix, b, deadline: float | None = None,
              options=None, timeout: float | None = None) -> SolveResponse:
        """Submit one request and block for its response.

        ``matrix`` may be a :class:`~repro.sparse.csc.CSCMatrix` or a
        registered pattern key.  Raises :class:`ServiceOverloaded` /
        :class:`ServiceClosed` at admission; rejections after admission
        come back inside the response (``response.result()`` re-raises
        them).
        """
        pending = self.service.submit(SolveRequest(
            matrix=matrix, b=b, deadline=deadline, options=options))
        return pending.result(timeout)
