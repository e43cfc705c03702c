"""ND008 fixture: blocking work reachable inside a lock region."""

import threading
import time


class BadCritical:
    def __init__(self):
        self._lock = threading.Lock()
        self.flushed = 0

    def direct(self):
        with self._lock:
            time.sleep(0.1)  # ndlint: allow[ND001] -- blocking primitive under the lock

    def transitive(self):
        with self._lock:
            self._flush()  # reaches time.sleep through the call graph

    def unlocked(self):
        self._flush()  # fine: no lock held

    def _flush(self):
        time.sleep(0.2)  # ndlint: allow[ND001] -- the blocking call ND008 traces
        self.flushed += 1
