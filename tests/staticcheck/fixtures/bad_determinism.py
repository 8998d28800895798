# ruff: noqa — deliberately-buggy fixture, parsed by the analyzers, never imported
"""Seeded determinism/exception-hygiene bugs (DT*/EX001). Never imported."""

import os
import random
import time
from datetime import datetime


def wall_clock_latency(env):
    t0 = time.time()  # DT001
    return t0 - env.now


def calendar_stamp():
    return datetime.now().isoformat()  # DT002


def unseeded_draws(keys):
    jitter = random.random()  # DT003
    noise = np.random.rand()  # DT003
    token = os.urandom(8)  # DT003
    return jitter, noise, token


def id_ordered(objs, table, x):
    ranked = sorted(objs, key=id)  # DT004
    table[id(x)] = ranked  # DT004
    return ranked


def set_iteration(pools):
    live = {p for p in pools if p.alive}
    for p in live:  # DT005
        p.scrub()
    for q in {1, 2, 3}:  # DT005
        print(q)


def clock_writes(env, proc):
    env.now = 5.0  # DT006
    env.now += 1.0  # DT006
    proc.env.now, _ = 3.0, None  # DT006


def swallow_everything(part, loc):
    try:
        return part.read_object(loc)
    except Exception:  # EX001
        return None


def swallow_bare(part, loc):
    try:
        return part.read_object(loc)
    except:  # noqa: E722  EX001
        return None


# -- finding-free counterparts (pin the no-false-positive behaviour) --


def ok_seeded_and_sorted(rng, pools, env):
    jitter = rng.random()  # seeded RngRegistry stream, not the module
    gen = np.random.default_rng(42)  # explicitly seeded
    live = {p for p in pools if p.alive}
    for p in sorted(live, key=lambda p: p.pool_id):  # sanctioned
        p.scrub()
    return jitter, gen, env.now


def ok_clock_reads(env, stats):
    now = env.now  # a local named now, a read of the clock
    stats.now_ns = env.now  # another attribute
    stats.seen[env.now] = now
    return now
