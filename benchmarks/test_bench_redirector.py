"""Redirector micro-benchmark: the fast-table lookup on the per-packet
path, timed in isolation.

Unlike the macro-benchmark this times a single structure, so its
numbers are only comparable *within* one run — CI uses it to spot
order-of-magnitude cliffs, not absolute speed.
"""


def _fast_table_lookups(n_services: int = 256, lookups: int = 200_000) -> int:
    """The redirector's per-packet path: two fast-table probes per
    packet ((src, sport) then (dst, dport)) against plain-int keys."""
    from repro.hydranet.redirector import _RedirectorTable, RedirectionEntry, ServiceKey
    from repro.netsim.addressing import IPAddress

    table = _RedirectorTable()
    for i in range(n_services):
        key = ServiceKey(IPAddress(0x0A000000 + i), 5000 + i)
        table[key] = RedirectionEntry(
            key=key, replicas=[IPAddress(0x0A010000 + i)]
        )
    fast = table.fast
    hits = 0
    for i in range(lookups):
        if fast.get((0x0A000000 + (i % n_services), 5000 + (i % n_services))):
            hits += 1
        if fast.get((0x0B000000 + (i % n_services), 5000)) is None:
            hits += 1  # miss path is just as hot (non-service traffic)
    return hits


def test_bench_redirector_fast_table(benchmark):
    hits = benchmark.pedantic(_fast_table_lookups, rounds=3, iterations=1)
    assert hits == 400_000
