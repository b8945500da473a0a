"""The worker mechanism's one return channel: a Report per request."""

import inspect
import multiprocessing
import os
import warnings

import pytest

from quantldpc import evolution, workers
from quantldpc.evolution import EnsembleConfig
from support import alarm


def warn_then(kind, x):
    """Warns with ``x``, then returns ``2 * x``, raises ValueError (kind
    "raise") or ends the process (kind "die")."""
    warnings.warn(f"saw {x}", UserWarning)
    if kind == "raise":
        raise ValueError(f"bad {x}")
    if kind == "die":
        os._exit(3)
    return 2 * x


def texts(report):
    return [(type(m).__name__, str(m)) for m, *_ in report.warned]


def shown(run):
    """(run()'s result or the ValueError's text, the warnings it shows)."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            res = run()
        except ValueError as exc:
            res = ("raised", str(exc))
    return res, [str(w.message) for w in log]


def test_recorded_carries_the_value_or_the_exception_and_the_warnings():
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        ok = workers.recorded(warn_then, "return", 4)
        bad = workers.recorded(warn_then, "raise", 5)
    assert log == []        # recorded, not shown
    assert ok.value == 8 and texts(ok) == [("UserWarning", "saw 4")]
    assert isinstance(bad.value, ValueError) and str(bad.value) == "bad 5"
    assert texts(bad) == [("UserWarning", "saw 5")]


@pytest.mark.parametrize("in_process", [False, True])
def test_reply_is_the_report_of_the_request(in_process):
    def reply(kind, x):
        if in_process:
            worker = workers._InProcess(warn_then)
            worker.send(kind, x)
            return worker.reply()
        with workers.forked(warn_then, 1) as [worker]:
            worker.send(kind, x)
            return worker.reply()

    ok, bad = reply("return", 3), reply("raise", 7)
    assert isinstance(ok, workers.Report) and isinstance(bad, workers.Report)
    assert ok.value == 6 and texts(ok) == [("UserWarning", "saw 3")]
    assert isinstance(bad.value, ValueError) and str(bad.value) == "bad 7"
    assert texts(bad) == [("UserWarning", "saw 7")]
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_still_raises():
    with alarm(30), workers.forked(warn_then, 1) as [worker]:
        worker.send("die", 1)
        with pytest.raises(RuntimeError, match="exit code 3"):
            worker.reply()
    assert multiprocessing.active_children() == []


def test_replayed_emits_in_order_up_to_the_first_exception():
    reports = [workers.recorded(warn_then, "return", 1), workers.recorded(warn_then, "raise", 2),
               workers.recorded(warn_then, "raise", 3)]
    assert shown(lambda: workers.replayed(reports[:1])) == ([2], ["saw 1"])
    assert shown(lambda: workers.replayed(reports)) == (("raised", "bad 2"), ["saw 1", "saw 2"])


@pytest.mark.parametrize("count", [1, 3])
def test_spread_equals_running_the_requests_in_order(count):
    requests = [("return", x) for x in range(count)]
    want = shown(lambda: [warn_then(*args) for args in requests])
    with workers.forked(warn_then, count - 1) as team:
        got = shown(lambda: workers.replayed(workers.spread(warn_then, team, requests)))
    assert got == want == ([2 * x for x in range(count)], [f"saw {x}" for x in range(count)])
    assert multiprocessing.active_children() == []


def test_spread_raises_a_worker_s_exception_after_the_earlier_warnings():
    requests = [("return", 0), ("raise", 1), ("raise", 2)]
    with workers.forked(warn_then, 2) as team:
        got = shown(lambda: workers.replayed(workers.spread(warn_then, team, requests)))
    assert got == (("raised", "bad 1"), ["saw 0", "saw 1"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("in_process", [False, True])
def test_a_replayed_warning_keeps_the_place_that_gave_it(in_process):
    # shown at warn_then's warnings.warn line, not at the replay site
    lines, first = inspect.getsourcelines(warn_then)
    line = first + next(i for i, text in enumerate(lines) if "warnings.warn(" in text)
    with alarm(30), workers.forked(warn_then, 0 if in_process else 1) as team:
        worker = workers._InProcess(warn_then) if in_process else team[0]
        worker.send("return", 5)
        report = worker.reply()
    assert [where[1:] for where in report.warned] == [(UserWarning, __file__, line, __name__)]
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        assert workers.replayed([report]) == [10]
    assert [(w.category, w.filename, w.lineno, str(w.message)) for w in log] == [
        (UserWarning, __file__, line, "saw 5")]


@pytest.mark.parametrize("in_process", [False, True])
def test_a_filter_on_the_module_that_warned_hides_its_replayed_warning(in_process):
    # a design at -3.0 dB warns "mi_vn decreased" at _probe's call of
    # design_decoder (stacklevel=2), so in module quantldpc.evolution
    lines, first = inspect.getsourcelines(evolution._probe)
    line = first + next(i for i, text in enumerate(lines) if "design_decoder(" in text)
    cfg = EnsembleConfig(dc=6, dv=3, w=3, wphi=6, iterations=15, cn_variant="comp",
                         vn_variant="comp", design_ebn0_db=3.0, rate=0.5)
    with alarm(60), workers.forked(evolution._probe, 0 if in_process else 1) as team:
        worker = workers._InProcess(evolution._probe) if in_process else team[0]
        worker.send(cfg, -3.0, 0.9999)
        report = worker.reply()
    for ignored in (False, True):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            if ignored:
                warnings.filterwarnings("ignore", category=RuntimeWarning,
                                        module=r"quantldpc\.evolution\Z")
            assert workers.replayed([report]) == [False]
        assert [(w.category, w.filename, w.lineno) for w in log] == (
            [] if ignored else [(RuntimeWarning, evolution.__file__, line)])
