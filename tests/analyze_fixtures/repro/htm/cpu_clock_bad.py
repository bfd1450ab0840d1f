"""BAD fixture: CPU-time clocks read in sim-critical code (``htm``)."""

import time


def charge():
    return (
        time.process_time(),
        time.process_time_ns(),
        time.thread_time(),
        time.thread_time_ns(),
    )
