"""Host-speed calibration: a fixed chunk of interpreter work.

The benchmark shares a host whose speed drifts: the same unit of
simulated work can take 0.4 s one minute and 0.8 s the next, in CPU time
as much as in wall time.  The drift comes from other tenants, so it
slows any Python code running at the same moment by about as much.

:func:`measure` times one fixed chunk of pure-Python work shaped like the
simulator's own (a heap-ordered event queue, register objects behind
dicts, method calls, frame copies into a ring, ``struct.unpack_from``).
The runner measures a chunk right before and right after each timed
body, and every ``INTERVAL_S`` inside it, and rescales the body's times
by ``REF_CHUNK_S`` over the chunks' mean: every reported time is the
time the body would have taken on a host running the chunk in exactly
``REF_CHUNK_S``.

This file is part of the benchmark's definition.  Changing the chunk or
``REF_CHUNK_S`` changes every reported time, so results from different
versions of it do not compare.
"""

import heapq
import struct
import time

# Events per chunk, and the chunk's time on the reference host: a round
# figure between its fastest and its typical time on a 2-vCPU x86-64 VM.
CHUNK_EVENTS = 1000
REF_CHUNK_S = 0.0025
# The chunk works over a persistent set of devices (about 2 MB), so that
# like the simulator it depends on the caches and not only on the core.
N_DEVICES = 256
N_REGS = 64
# Time between chunks inside a timed body (between two of its steps).
INTERVAL_S = 0.025


class _Reg:
    __slots__ = ("value", "writes")

    def __init__(self):
        self.value = 0
        self.writes = 0

    def write(self, value):
        self.value = value & 0xFFFFFFFF
        self.writes += 1


class _Dev:
    def __init__(self):
        self.regs = {i * 4: _Reg() for i in range(N_REGS)}
        self.ring = bytearray(1024)
        self.stats = {"tx": 0, "bytes": 0}

    def mmio(self, offset, value=None):
        reg = self.regs.get(offset)
        if reg is None:
            return 0
        if value is None:
            return reg.value
        reg.write(value)
        return value

    def xmit(self, frame):
        n = len(frame)
        self.ring[:n] = frame
        a, b = struct.unpack_from("<IH", self.ring, 0)
        self.stats["tx"] += 1
        self.stats["bytes"] += n
        return a ^ b


_FRAME = bytes(range(256)) * 2
_devices = []


def chunk():
    """The fixed work; returns a checksum so nothing is optimised away.

    The event sequence depends only on the loop, never on the devices'
    state, so every chunk does exactly the same work.
    """
    if not _devices:
        _devices.extend(_Dev() for _ in range(N_DEVICES))
    devs = _devices
    queue = []
    seq = 0
    for i in range(64):
        heapq.heappush(queue, (i * 7, seq, i * 37 % N_DEVICES))
        seq += 1
    acc = 0
    for _ in range(CHUNK_EVENTS):
        t, _seq, d = heapq.heappop(queue)
        dev = devs[d]
        offset = t * 4 % (N_REGS * 4)
        acc += dev.mmio(offset)
        dev.mmio(offset, acc + t)
        acc ^= dev.xmit(_FRAME[:64 + t % 400])
        acc += len([x for x in (t, d, acc) if x])
        heapq.heappush(queue, (t + 1 + (seq & 15), seq, (d + 97) % N_DEVICES))
        seq += 1
    return acc


def measure():
    """(wall s, CPU s) of one chunk."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    chunk()
    t1 = time.perf_counter()
    c1 = time.process_time()
    return t1 - t0, c1 - c0
