"""Clean fixture: every ndlint invariant honoured."""


def replicate(network, retry, call_with_retry):
    call_with_retry(lambda: network.send("a", "b", 64, "replica"), retry)
