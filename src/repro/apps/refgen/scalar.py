"""The scalar reference-stream engine: the executable specification.

Two loops produce the stream one touch at a time, and they are the
same stream.  :func:`next_blocks_spec` is the ring-buffer touch loop
with one call to ``rng._randbelow``/``rng.randrange`` per bounded
draw.  Its behaviour — which blocks are emitted, which random draws
are consumed, how the hot-set ring evolves — *defines* the stream.
:func:`next_blocks_inline` is the same loop with CPython's
``_randbelow_with_getrandbits`` rejection loop written out in place,
so it consumes exactly the words that calls would; it runs whenever
:func:`~repro.apps.refgen.draws_inline` holds (every stock
``random.Random``), and the call-per-draw loop runs for any other rng
and referees the inline one in the tests.  The vectorized engine in
:mod:`repro.apps.refgen.numpy_backend` must reproduce the stream
bit-for-bit and falls back to the inline loop wherever it cannot
(warmup, tiny chunks).

The loops work directly on the generator's state attributes so that
engines can be swapped (or fallen back to mid-call) without copying
state around.
"""

from __future__ import annotations

import typing

from repro.apps.refgen import draws_inline

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.reference import ReferenceGenerator


def next_blocks_spec(gen: "ReferenceGenerator", n: int) -> typing.List[int]:
    """The next ``n`` touches of ``gen``'s stream, one touch at a time.

    Stream-equivalent to any chunking of itself: the same random draws
    produce the same blocks and leave the generator in the same state.
    """
    spec = gen.spec
    rng = gen._rng
    random_ = rng.random
    randrange = rng.randrange
    # Random.choice(seq) is seq[rng._randbelow(len(seq))]; drawing the
    # index directly keeps the stream identical to the deque-based
    # formulation while the ring makes the lookup O(1).
    randbelow = getattr(rng, "_randbelow", randrange)
    p_reuse = spec.p_reuse
    n_phases = spec.n_phases
    phase_touches = spec.phase_touches
    sequential = spec.cold_pattern == "sequential"
    data_blocks = spec.data_blocks
    region = gen._region_size
    region_draw = region if region >= 1 else 1
    cap = spec.reuse_window
    buf = gen._recent_buf
    start = gen._recent_start
    length = gen._recent_len
    phase = gen._phase
    tip = gen._touches_in_phase
    scan = gen._scan
    last = buf[(start + length - 1) % cap] if length else -1
    out: typing.List[int] = []
    append_out = out.append
    for _ in range(n):
        if n_phases > 1:
            tip += 1
            if tip > phase_touches:
                # Advance to the next region and drop the hot set
                # (a new computation begins).
                phase = (phase + 1) % n_phases
                tip = 0
                start = 0
                length = 0
                last = -1
                scan = phase * region
        if length and random_() < p_reuse:
            # Hot-set revisit: does not enter the recency window.
            append_out(buf[(start + randbelow(length)) % cap])
            continue
        if sequential:
            block = scan
            scan += 1
            if n_phases > 1:
                base = phase * region
                if scan >= base + region:
                    scan = base
            elif scan >= data_blocks:
                scan = 0
        elif n_phases > 1:
            block = phase * region + randrange(region_draw)
        else:
            block = randrange(data_blocks)
        if block != last:
            if length < cap:
                buf[(start + length) % cap] = block
                length += 1
            else:
                buf[start] = block
                start += 1
                if start == cap:
                    start = 0
            last = block
        append_out(block)
    gen._recent_start = start
    gen._recent_len = length
    gen._phase = phase
    gen._touches_in_phase = tip
    gen._scan = scan
    return out


def next_blocks_inline(gen: "ReferenceGenerator", n: int) -> typing.List[int]:
    """:func:`next_blocks_spec` with each bounded draw written out in place.

    ``randrange(m)`` and ``_randbelow(m)`` on a stock ``random.Random``
    are ``r = getrandbits(m.bit_length())``, redrawn while ``r >= m``;
    this loop runs that rejection loop itself, one C call per word
    instead of one or two interpreted frames per draw.  It consumes
    the same words, so blocks, ring state and ``rng.getstate()`` are
    those of the call-per-draw loop.  Only valid when
    :func:`~repro.apps.refgen.draws_inline` holds for ``gen._rng``.
    """
    spec = gen.spec
    rng = gen._rng
    random_ = rng.random
    getrandbits = rng.getrandbits
    p_reuse = spec.p_reuse
    n_phases = spec.n_phases
    phased = n_phases > 1
    phase_touches = spec.phase_touches
    sequential = spec.cold_pattern == "sequential"
    data_blocks = spec.data_blocks
    k_data = data_blocks.bit_length()
    region = gen._region_size
    region_draw = region if region >= 1 else 1
    k_region = region_draw.bit_length()
    cap = spec.reuse_window
    buf = gen._recent_buf
    start = gen._recent_start
    length = gen._recent_len
    # Word width of a hot-set pick: changes only as the ring fills.
    k = length.bit_length()
    phase = gen._phase
    tip = gen._touches_in_phase
    scan = gen._scan
    last = buf[(start + length - 1) % cap] if length else -1
    out: typing.List[int] = []
    append_out = out.append
    for _ in range(n):
        if phased:
            tip += 1
            if tip > phase_touches:
                phase = (phase + 1) % n_phases
                tip = 0
                start = 0
                length = 0
                k = 0
                last = -1
                scan = phase * region
        if length and random_() < p_reuse:
            r = getrandbits(k)
            while r >= length:
                r = getrandbits(k)
            r += start
            if r >= cap:
                r -= cap
            append_out(buf[r])
            continue
        if sequential:
            block = scan
            scan += 1
            if phased:
                base = phase * region
                if scan >= base + region:
                    scan = base
            elif scan >= data_blocks:
                scan = 0
        elif phased:
            r = getrandbits(k_region)
            while r >= region_draw:
                r = getrandbits(k_region)
            block = phase * region + r
        else:
            block = getrandbits(k_data)
            while block >= data_blocks:
                block = getrandbits(k_data)
        if block != last:
            if length < cap:
                buf[(start + length) % cap] = block
                length += 1
                k = length.bit_length()
            else:
                buf[start] = block
                start += 1
                if start == cap:
                    start = 0
            last = block
        append_out(block)
    gen._recent_start = start
    gen._recent_len = length
    gen._phase = phase
    gen._touches_in_phase = tip
    gen._scan = scan
    return out


class ScalarGeneratorBackend:
    """The reference engine: the inline loop on a stock rng, else the spec loop."""

    name = "scalar"

    def __init__(self, gen: "ReferenceGenerator") -> None:
        self._gen = gen
        self._loop = next_blocks_inline if draws_inline(gen._rng) else next_blocks_spec

    def next_blocks(self, n: int) -> typing.List[int]:
        return self._loop(self._gen, n)

    def next_blocks_array(self, n: int):
        # Import on demand: the scalar engine itself never needs numpy;
        # only the fused array path (used when a caller mixes a scalar
        # generator with an array-consuming cache) does.
        import numpy

        return numpy.asarray(self._loop(self._gen, n), dtype=numpy.int64)

    def invalidate(self) -> None:
        """No engine-side state: the generator is always authoritative."""
