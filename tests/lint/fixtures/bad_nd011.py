"""ND011 fixture: confined constructs outside their sanctioned sites."""

import heapq
import threading
from ndpipe_e2e import workloads


def spawn(run, model, batch, pixels, preprocess):
    threading.Thread(target=run).start()
    guard = threading.Lock()
    features = model.forward_until(batch[:32], 3)
    return guard, features, preprocess(pixels), heapq, workloads
