"""ND011 fixture: a report topic that patches what it reads."""


def topic(cluster):
    cluster.tuner.lr = 0.0
    return cluster.tuner.version
