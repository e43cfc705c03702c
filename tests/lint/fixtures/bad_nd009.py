"""ND009 fixture: accounting inside a try body skipped by a caught fault."""


@conserves("offered == done + failed")  # noqa: F821 — parsed, not run
class FragileBooks:
    def __init__(self, metrics):
        self.offered = 0
        self.done = 0
        self.failed = 0
        self.m = metrics

    def settle(self, work):
        self.offered += 1
        try:
            work()
            self.done += 1        # conserved counter inside try: flagged
            self.m.settled.inc()  # metric update inside try: flagged
        except RuntimeError:
            self.failed += 1      # handler, not try body: fine

    def settle_bound(self, work, m_latency):
        try:
            work()
            self._m_done.inc()                # bound child inside try: flagged
            self.m.by_status["ok"].inc()      # cached child map: flagged
            self._m_edges["ingest", "a"].inc(8)  # keyed child map: flagged
            m_latency.observe(0.1)            # child bound to a local: flagged
            self._m_inflight.set(0)           # gauge child: flagged
        except RuntimeError:
            self._m_failed.inc()              # handler, not try body: fine
