"""End-to-end stream benchmark: pcap bytes to NDJSON events, with a per-layer ledger.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout.  See ``perfbench/run.py`` for what is measured.
"""
