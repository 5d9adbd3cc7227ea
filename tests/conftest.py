import os
import tracemalloc

import pytest

# One BLAS thread unless the environment says otherwise, as perfbench/run.py
# gives its children: a small dense solve such as p2_oracle's eigh can wait
# far longer on OpenBLAS's thread pool than it computes.  BLAS reads these
# when numpy loads, which is after this file.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_RECORDS = []


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs): the peak bytes tracemalloc traces
    while fn runs, counted from the call, so arrays that exist before it
    count for nothing."""

    def peak(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def criterion():
    """Recorder for the acceptance suite: one PASS/FAIL line per criterion."""

    def record(num: int, passed: bool, detail: str) -> None:
        _RECORDS.append((int(num), bool(passed), str(detail)))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for num, passed, detail in sorted(_RECORDS):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {num}: {word} - {detail}")
