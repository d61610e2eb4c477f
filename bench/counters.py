"""User-mode instructions retired by this thread, from the CPU's counter.

The benchmark's work metrics (``fit_ginstr``, ``post_ginstr``) read the
hardware counter of retired instructions through ``perf_event_open(2)``,
restricted to the calling thread and to user mode. On a shared host the
wall time of a fixed fit moves by a third as other tenants load the cores,
and the cycle count moves with it, while the instruction count of the same
fit repeats to about 0.1% (figures in ``README.md``).

Needs Linux on x86_64, a kernel that lets a process count its own user-mode
events (``/proc/sys/kernel/perf_event_paranoid`` at 2 or lower) and a PMU
the machine exposes; :class:`InstructionCounter` raises ``OSError``
otherwise.
"""

from __future__ import annotations

import ctypes
import fcntl
import os
import platform
import struct

_SYS_PERF_EVENT_OPEN = 298  # x86_64
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
#: ``perf_event_attr`` flag bits: disabled, pinned (the counter never shares
#: the PMU, so its count is never scaled), exclude_kernel, exclude_hv.
_FLAGS = (1 << 0) | (1 << 2) | (1 << 5) | (1 << 6)
_ATTR_SIZE = 128
_IOC_ENABLE = 0x2400


class InstructionCounter:
    """Counts the user-mode instructions the calling thread retires."""

    def __init__(self) -> None:
        if platform.machine() != "x86_64":
            raise OSError(f"instruction counter: x86_64 only, not {platform.machine()}")
        attr = bytearray(_ATTR_SIZE)
        struct.pack_into(
            "IIQQQQQ", attr, 0, _PERF_TYPE_HARDWARE, _ATTR_SIZE,
            _PERF_COUNT_HW_INSTRUCTIONS, 0, 0, 0, _FLAGS,
        )
        libc = ctypes.CDLL(None, use_errno=True)
        buf = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
        fd = libc.syscall(_SYS_PERF_EVENT_OPEN, buf, 0, -1, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"perf_event_open (instructions): {os.strerror(err)}")
        self._fd = fd
        fcntl.ioctl(fd, _IOC_ENABLE, 0)

    def read(self) -> int:
        """Instructions counted so far."""
        raw = os.read(self._fd, 8)
        if len(raw) != 8:  # a pinned counter that lost the PMU reads as end of file
            raise OSError("the instruction counter was taken off the PMU")
        return struct.unpack("Q", raw)[0]

    def close(self) -> None:
        os.close(self._fd)
