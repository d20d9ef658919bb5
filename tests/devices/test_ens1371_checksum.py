"""Bulk DAC2 audio checksum against the per-word reference loop.

``Ens1371Device._consume_audio`` sums the consumed span of the DMA ring
in bulk, one ``struct.unpack_from`` per ring lap.  The reference below is
the model's original one-call-per-word loop; every case drives both from
the same state and compares ``audio_checksum`` and ``dac2_pos_bytes``.
"""

import random
import struct

import pytest

from repro.devices import Ens1371Device
from repro.kernel import make_kernel


def reference_consume(data, off, size_bytes, pos_bytes, checksum, nbytes):
    """Per-word loop: returns (audio_checksum, dac2_pos_bytes)."""
    for i in range(0, nbytes, 4):
        pos = (pos_bytes + i) % size_bytes
        word = struct.unpack_from("<I", data, off + pos)[0] \
            if off + pos + 4 <= len(data) else 0
        checksum = (checksum + word) & 0xFFFFFFFF
    return checksum, (pos_bytes + nbytes) % size_bytes


@pytest.fixture
def snd():
    kernel = make_kernel()
    return Ens1371Device(kernel)


def check_case(snd, region_size, offset, ring_words, start, nbytes, seed,
               checksum=0):
    """Run one consume on the model and on the reference; compare."""
    kernel = snd._kernel
    region = kernel.memory.dma_alloc_coherent(region_size)
    try:
        rng = random.Random(seed)
        region.data[:] = rng.randbytes(region_size)
        snd.dac2_frame_addr = region.dma_addr + offset
        snd.dac2_frame_size = ring_words - 1
        snd.dac2_pos_bytes = start
        snd.audio_checksum = checksum
        expect = reference_consume(region.data, offset, ring_words * 4,
                                   start, checksum, nbytes)
        snd._consume_audio(nbytes)
        assert (snd.audio_checksum, snd.dac2_pos_bytes) == expect, (
            region_size, offset, ring_words, start, nbytes)
    finally:
        kernel.memory.dma_free_coherent(region)


class TestNamedCases:
    def test_no_wrap(self, snd):
        check_case(snd, 4096, 0, 1024, 0, 1024, seed=1)

    def test_single_wrap(self, snd):
        check_case(snd, 4096, 0, 1024, 3000, 2048, seed=2)

    def test_exactly_one_lap(self, snd):
        check_case(snd, 4096, 0, 1024, 0, 4096, seed=3)

    def test_several_wraps(self, snd):
        check_case(snd, 4096, 0, 64, 40, 64 * 4 * 5 + 12, seed=4)

    def test_one_word_ring(self, snd):
        check_case(snd, 64, 8, 1, 0, 40, seed=5)

    def test_ring_runs_past_region_end(self, snd):
        # Ring of 1024 bytes starting 900 bytes into a 1024-byte region:
        # only the first 124 bytes of it exist; the rest read as 0.
        check_case(snd, 1024, 900, 256, 100, 2048, seed=6)

    def test_word_straddles_region_end(self, snd):
        check_case(snd, 1024, 1022, 4, 0, 16, seed=7)

    def test_unaligned_start(self, snd):
        for start in (1, 2, 3, 1021, 4094, 4095):
            check_case(snd, 8192, 0, 1024, start, 3000, seed=start)

    def test_unaligned_start_runs_past_ring_end(self, snd):
        # The last word of each lap straddles the ring's end and reads
        # the byte after it rather than wrapping mid-word.
        check_case(snd, 8192, 16, 32, 126, 1024, seed=8)

    def test_partial_last_word(self, snd):
        for nbytes in (1, 2, 3, 5, 4097):
            check_case(snd, 8192, 0, 1024, 8, nbytes, seed=nbytes)

    def test_zero_bytes(self, snd):
        check_case(snd, 4096, 0, 1024, 12, 0, seed=9)

    def test_start_beyond_ring(self, snd):
        # The ring shrank under a running position (frame size rewrite).
        check_case(snd, 8192, 0, 64, 1000, 700, seed=10)

    def test_checksum_wraps_to_32_bits(self, snd):
        check_case(snd, 4096, 0, 1024, 0, 4096, seed=11,
                   checksum=0xFFFFFFF0)

    def test_mixed_offsets_and_partial_words(self, snd):
        check_case(snd, 4096, 0, 1024, 3000, 2048, seed=12)
        check_case(snd, 1024, 900, 256, 101, 2050, seed=13)
        check_case(snd, 4096, 0, 64, 2, 64 * 4 * 3 + 3, seed=14)


def test_seeded_sweep(snd):
    rng = random.Random(1371)
    for _ in range(400):
        region_size = rng.choice((16, 64, 1024, 4096, 8192))
        offset = rng.randrange(region_size)
        ring_words = rng.choice((1, 2, 7, 64, 256, 1024, 2048))
        start = rng.randrange(ring_words * 4 + 8)
        nbytes = rng.randrange(0, 6000)
        check_case(snd, region_size, offset, ring_words, start, nbytes,
                   seed=rng.getrandbits(32),
                   checksum=rng.getrandbits(32))
