"""Unit helpers.

All internal quantities use base SI-ish units: bytes, bytes per second,
flops (work units), flops per second, seconds.  These helpers make the
platform descriptions and the reproduction of the paper's tables readable
(the paper mixes Gbps, MBps, GBps and Mflops).
"""

from __future__ import annotations

# --------------------------------------------------------------------- #
# sizes (bytes)
# --------------------------------------------------------------------- #
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12

KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3


# --------------------------------------------------------------------- #
# bandwidths (bytes/second)
# --------------------------------------------------------------------- #
def gbps(value: float) -> float:
    """Gigabits per second -> bytes per second."""
    return value * 1e9 / 8.0


def MBps(value: float) -> float:
    """Megabytes per second -> bytes per second."""
    return value * 1e6


def GBps(value: float) -> float:
    """Gigabytes per second -> bytes per second."""
    return value * 1e9


# --------------------------------------------------------------------- #
# compute speeds (flop/s)
# --------------------------------------------------------------------- #
def gflops(value: float) -> float:
    """Gflop/s -> flop/s."""
    return value * 1e9


# --------------------------------------------------------------------- #
# pretty-printing (used by the table/figure reproduction code)
# --------------------------------------------------------------------- #
def format_bandwidth(bytes_per_second: float) -> str:
    """Render a bandwidth the way the paper's tables do (Gbps or MBps)."""
    bits = bytes_per_second * 8.0
    if bits >= 1e9:
        return f"{bits / 1e9:.2f} Gbps"
    if bits >= 1e6:
        return f"{bits / 1e6:.1f} Mbps"
    return f"{bits:.0f} bps"


def format_disk_bandwidth(bytes_per_second: float) -> str:
    """Render a disk bandwidth in MBps / GBps (the paper's convention)."""
    if bytes_per_second >= 1e9:
        return f"{bytes_per_second / 1e9:.2f} GBps"
    return f"{bytes_per_second / 1e6:.1f} MBps"


def format_speed(flops_per_second: float) -> str:
    """Render a compute speed in Mflops / Gflops."""
    if flops_per_second >= 1e9:
        return f"{flops_per_second / 1e9:.2f} Gflops"
    return f"{flops_per_second / 1e6:.0f} Mflops"


def format_duration(seconds: float) -> str:
    """Render a duration (used in Table VI-style reports)."""
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1e3:.0f} ms"
