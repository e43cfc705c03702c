"""ND001 fixture: direct wall-clock reads, sleeps and entropy reads."""

import os
import random
import time


def stamp():
    return time.time()


def jitter():
    return random.random()


def token():
    return os.urandom(8)


def pause():
    time.sleep(0.01)


def nap(clock):
    clock.sleep(1)
