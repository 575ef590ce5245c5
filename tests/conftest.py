import pytest
from hypothesis import settings

import qapprox.appell
import qapprox.qcore

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def kernel_windows(monkeypatch):
    """Record the weight kernel's windows as (firsts, blocks): the first
    window `appell._first_windows` gives each row, and (rows, width) of each
    block summed through `qcore._logs_from_peak`, which Eq_exp_series also
    calls.  A first window with no block of its width had its rows summed,
    and cut, in a wider one."""
    firsts, blocks = [], []
    first_windows, logs_from_peak = qapprox.appell._first_windows, qapprox.qcore._logs_from_peak

    def recorded_firsts(*a):
        widths = first_windows(*a)
        firsts.extend(widths)
        return widths

    def recorded_block(log_ratio):
        blocks.append((log_ratio.shape[0], log_ratio.shape[1] + 1))
        return logs_from_peak(log_ratio)

    monkeypatch.setattr(qapprox.appell, "_first_windows", recorded_firsts)
    monkeypatch.setattr(qapprox.qcore, "_logs_from_peak", recorded_block)
    return firsts, blocks
