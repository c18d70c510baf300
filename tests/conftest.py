import contextlib

import pytest

from ugo import search


class ScanCrash(Exception):
    """Raised by `crash_scan_after_rows` in place of a real interrupt."""


@pytest.fixture
def crash_scan_after_rows():
    """A context manager in which `scan_to_file` dies after `rows` rows.

    The scan stops as a crash would: the rows since the last checkpoint are
    in the output file, and the journal stays behind them.  The context
    requires the crash to happen and restores the scan afterwards:
    `with crash_scan_after_rows(97): scan_to_file(cfg)`.
    """

    @contextlib.contextmanager
    def crash(rows: int):
        real = search.iter_task_results

        def crashing(config, done=0):
            left = rows
            for item in real(config, done):
                yield item
                if isinstance(item[2], search.TableRow):
                    left -= 1
                    if not left:
                        raise ScanCrash

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "iter_task_results", crashing)
            with pytest.raises(ScanCrash):
                yield

    return crash
