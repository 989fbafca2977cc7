"""Hooks around the public gauss_spectra API, installed from outside the package.

Every run counts eigen-solves and times each point; that is all the
end-to-end metrics need, and it costs a set lookup per provider call.  A
traced run also records one span per call at each layer boundary:

    point     a spectrum point function (khintchine_point, lyapunov_point)
    transfer  PressureProvider.result / pressure / dP_dq / dP_dt and
              Discretization.chebyshev
    zeta      hurwitz_zeta as transfer calls it

A solve is the first provider call at a distinct (t, q) of one provider.  A
later dP_dq / dP_dt call at a solved point is a derivative; any other repeat
is a cache hit.
"""

from __future__ import annotations

import statistics
import weakref
from contextlib import contextmanager
from time import perf_counter

from gauss_spectra import spectra, transfer

PROVIDER_METHODS = ("result", "pressure", "dP_dq", "dP_dt")
PROVIDER_SPANS = {"transfer." + name for name in PROVIDER_METHODS}
DERIVATIVES = ("dP_dq", "dP_dt")
CURVE_POINT_FUNCTIONS = ("khintchine_point", "lyapunov_point")

# span fields
NAME, KIND, START, END, PARENT, ORDER, BOOSTED = range(7)


class Probe:
    """Solve counts and point times for one phase, plus spans when traced."""

    def __init__(self, tracing: bool):
        self.tracing = tracing      # hooks for spans installed
        self.traced = tracing       # spans recorded right now
        self.point_s: list[float] = []
        self.solves = 0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, kind: str, order: int = 0, boosted: bool = False) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, kind, perf_counter(), 0.0, parent, order, boosted])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, kind: str, fn):
        def call(*args, **kwargs):
            if not self.traced:
                return fn(*args, **kwargs)
            idx = self._open(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return call

    def live_providers(self) -> int:
        """Providers seen by the hooks that are still alive."""
        return len(self._seen)

    # -- hooks -------------------------------------------------------------

    def timed_point(self, fn, *args, **kwargs):
        """Call one point function; its wall time is kept if it returns."""
        idx = self._open("point", "point") if self.traced else -1
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            if idx >= 0:
                self._close(idx)
        self.point_s.append(perf_counter() - start)
        return out

    def _provider_method(self, name: str, fn):
        def call(prov, t, q):
            seen = self._seen.get(prov)
            if seen is None:
                seen = self._seen[prov] = set()
            if (t, q) not in seen:
                seen.add((t, q))
                if name in DERIVATIVES:
                    seen.add((t, q, name))
                kind = "solve"
                self.solves += 1
            elif name in DERIVATIVES and (t, q, name) not in seen:
                seen.add((t, q, name))
                kind = "deriv"
            else:
                kind = "hit"
            if not self.traced:
                return fn(prov, t, q)
            order = transfer.required_order(t, prov.disc.order) if kind == "solve" else 0
            idx = self._open("transfer." + name, kind, order, order > prov.disc.order)
            try:
                return fn(prov, t, q)
            finally:
                self._close(idx)
        return call

    @contextmanager
    def installed(self):
        """Patch the hooks in for the duration of the block, then restore."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        cls = transfer.PressureProvider
        for name in PROVIDER_METHODS:
            patch(cls, name, self._provider_method(name, cls.__dict__[name]))
        for name in CURVE_POINT_FUNCTIONS:
            fn = getattr(spectra, name)
            patch(spectra, name, lambda *a, _fn=fn, **kw: self.timed_point(_fn, *a, **kw))
        if self.tracing:
            chebyshev = transfer.Discretization.__dict__["chebyshev"].__func__
            patch(transfer.Discretization, "chebyshev",
                  classmethod(self._spanned("transfer.chebyshev", "disc", chebyshev)))
            patch(transfer, "hurwitz_zeta",
                  self._spanned("zeta.hurwitz_zeta", "zeta", transfer.hurwitz_zeta))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _outermost_transfer(span: list, spans: list[list]) -> bool:
    """A transfer span not nested in another transfer span."""
    return span[NAME].startswith("transfer.") and (
        span[PARENT] < 0 or not spans[span[PARENT]][NAME].startswith("transfer."))


def layer_metrics(spans: list[list], elapsed_s: float) -> dict[str, float]:
    """Per-layer figures of one traced phase, from its spans alone."""
    n = len(spans)
    zeta_in = [0.0] * n         # zeta time inside each span
    transfer_in = [0.0] * n     # outermost transfer time inside each point span
    for span in spans:
        dur = span[END] - span[START]
        if span[KIND] == "zeta":
            p = span[PARENT]
            while p >= 0:
                zeta_in[p] += dur
                p = spans[p][PARENT]
        elif _outermost_transfer(span, spans):
            p = span[PARENT]
            while p >= 0 and spans[p][KIND] != "point":
                p = spans[p][PARENT]
            if p >= 0:
                transfer_in[p] += dur

    def net_ms(kind):
        return [(s[END] - s[START] - zeta_in[i]) * 1e3
                for i, s in enumerate(spans) if s[KIND] == kind]

    solves = [s for s in spans if s[KIND] == "solve"]
    zetas = [s[END] - s[START] for s in spans if s[KIND] == "zeta"]
    discs = [(s[END] - s[START]) * 1e3 for s in spans if s[KIND] == "disc"]
    hits = [(s[END] - s[START]) * 1e6 for s in spans if s[KIND] == "hit"]
    provider_calls = [s for s in spans if s[NAME] in PROVIDER_SPANS]
    top_calls = [s for s in spans if s[KIND] != "disc" and _outermost_transfer(s, spans)]
    points = [i for i, s in enumerate(spans) if s[KIND] == "point"]
    n_solves = len(solves)
    return {
        "zeta.calls_per_solve": _ratio(len(zetas), n_solves),
        "zeta.ms_per_solve": _ratio(sum(zetas) * 1e3, n_solves),
        "zeta.time_share": _ratio(sum(zetas), elapsed_s),
        "transfer.solves": float(n_solves),
        "transfer.solve_ms": _mean(net_ms("solve")),
        "transfer.deriv_ms": _mean(net_ms("deriv")),
        "transfer.hit_us": _mean(hits),
        "transfer.cache_hit_ratio": _ratio(
            sum(1 for s in provider_calls if s[KIND] != "solve"), len(provider_calls)),
        "transfer.disc_builds": float(len(discs)),
        "transfer.disc_build_ms": _mean(discs),
        "transfer.boosted_solve_ratio": _ratio(sum(1 for s in solves if s[BOOSTED]), n_solves),
        "transfer.max_order": float(max((s[ORDER] for s in solves), default=0)),
        "spectra.calls_per_point": _ratio(len(top_calls), len(points)),
        "spectra.self_ms_per_point": _mean(
            [(spans[i][END] - spans[i][START] - transfer_in[i]) * 1e3 for i in points]),
    }
