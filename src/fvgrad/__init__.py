"""Unstructured finite-volume solver for the 2D Euler equations with a
learned, geometry-aware correction of the gradient reconstruction."""

import ctypes

__version__ = "0.1.0"


def _pin_malloc_thresholds():
    """Keep the step's and the tape's freed blocks in the process heap.

    By default glibc serves blocks above a dynamic mmap threshold (128 KiB
    at start) with fresh mappings and trims the heap top above 128 KiB, so
    every step maps, faults in and unmaps its 1-2 MB temporaries again.
    Pinning M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD at 256 MiB keeps
    them.  On a 2-vCPU Xeon host with one BLAS thread, an lsq-only step loop
    on a 20k-cell periodic irregular mesh went from 2,937 minor page faults
    and 25 ms per step to 0 faults and 15 ms, and a loop of training calls
    on the 1,458-cell mesh from about 34k faults per call to 0-3.  Where
    libc has no mallopt (not glibc), nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3     # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 256 << 20)


_pin_malloc_thresholds()
