"""Statistics and decision rules of the PANE benchmark.

Pure functions over plain data, kept apart from run.py so that
test_panebench.py can check every rule without building or running anything.

A request record is a tuple (due_ns, sent_ns, recv_ns, ok) as written by
`panebench_tool client`: times are nanoseconds since the open-loop
schedule started, recv_ns is -1 when no answer arrived, and ok is 0 for
an `err ...` answer or a dropped connection.
"""

import math
import statistics

# Percentiles a latency report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
# A percentile is quoted only with at least this many samples beyond it.
MIN_BEYOND = 10

MISS = math.inf  # latency of a failed or unanswered request


def percentile(values, p):
    """Nearest-rank percentile of `values` (any order); inf sorts last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n, min_beyond=MIN_BEYOND):
    """The highest of PERCENTILES with at least `min_beyond` of `n` samples
    strictly beyond it, or None when even the median is unsupported."""
    best = None
    for p in PERCENTILES:
        # Integer arithmetic on hundredths of a percent avoids float edges.
        beyond = n * (10000 - round(p * 100)) // 10000
        if beyond >= min_beyond:
            best = p
    return best


def latency_us(record):
    """Latency from when the request was due; a miss if it failed."""
    due, _sent, recv, ok = record
    if not ok or recv < 0:
        return MISS
    return (recv - due) / 1000.0


def lateness_us(record):
    """How late the open-loop generator sent the request."""
    due, sent, _recv, _ok = record
    return (sent - due) / 1000.0


def windows(records, window_ns):
    """Splits records, in due-time order, into as many equal consecutive
    windows as whole `window_ns` spans fit in the schedule (at least one)."""
    if not records:
        return []
    ordered = sorted(records)
    span = ordered[-1][0] - ordered[0][0]
    if len(ordered) > 1:
        span += span // (len(ordered) - 1)  # one more period: the last slot
    count = max(1, span // window_ns)
    n = len(ordered)
    return [ordered[i * n // count:(i + 1) * n // count] for i in range(count)]


def windowed_percentile(records, window_ns, p):
    """Median over windows of each window's p-th latency percentile.

    Every window must support p under the MIN_BEYOND rule; a median of
    per-window percentiles keeps one stalled window from setting the run's
    figure."""
    per_window = []
    for group in windows(records, window_ns):
        supported = highest_supported_percentile(len(group))
        if supported is None or supported < p:
            raise ValueError(
                "window of %d samples cannot support p%g" % (len(group), p))
        per_window.append(percentile([latency_us(r) for r in group], p))
    return statistics.median(per_window)


def interpolate(samples, t):
    """Linear interpolation in a time-ordered [(t, value), ...] series."""
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0) if t1 > t0 else v1
    raise ValueError("time %d outside the sampled range" % t)


def windowed_cost(records, window_ns, origin_ns, samples):
    """Median over the windows of `windows(records, window_ns)` of the
    growth of a sampled counter (e.g. server CPU ns) per request due in
    the window. `samples` are (monotonic ns, counter) pairs taken while the
    schedule ran; `origin_ns` is the schedule's start on the same clock."""
    groups = windows(records, window_ns)
    ordered = sorted(records)
    period = (ordered[-1][0] - ordered[0][0]) // max(1, len(ordered) - 1)
    edges = [origin_ns + g[0][0] for g in groups]
    edges.append(origin_ns + ordered[-1][0] + period)
    costs = [(interpolate(samples, b) - interpolate(samples, a)) / len(g)
             for a, b, g in zip(edges, edges[1:], groups)]
    return statistics.median(costs)


def backlog(records, t_ns):
    """Requests sent by t_ns and not yet answered at t_ns."""
    outstanding = 0
    for due, sent, recv, _ok in records:
        if 0 <= sent <= t_ns and (recv < 0 or recv > t_ns):
            outstanding += 1
    return outstanding


def backlog_growing(records, slack):
    """True when the backlog at the last due time exceeds the backlog at the
    middle due time by more than `slack` requests."""
    if not records:
        return False
    last_due = max(r[0] for r in records)
    return backlog(records, last_due) - backlog(records, last_due // 2) > slack


def rung_verdict(records, limit_us, slack):
    """Whether one ladder rung meets the service objective. Any failed or
    unanswered request ends the ladder, as does a growing backlog or a p99
    (failures counted as misses) above the latency limit."""
    failed = sum(1 for r in records if latency_us(r) == MISS)
    if failed:
        return False, "%d failed" % failed
    if backlog_growing(records, slack):
        return False, "backlog growing"
    p99 = percentile([latency_us(r) for r in records], 99.0)
    if p99 > limit_us:
        return False, "p99 %.0fus over %.0fus" % (p99, limit_us)
    return True, "p99 %.0fus" % p99


def ladder_rates(base, step, below, above):
    """The fixed geometric rate ladder, lowest rung first, and the index of
    `base` in it."""
    return [base * step ** i for i in range(-below, above + 1)], below


def walk_ladder(rates, start, run_rung, attempts=2):
    """Walks the fixed ladder and returns the index of the highest rung that
    passed, or None. `run_rung(rate)` measures one rung and returns a
    (passed, detail) pair; a rung passes if any of `attempts` measurements
    passes, so one host stall cannot end the walk. From `start` the walk
    climbs while rungs pass and stops at the first failing rung; if the
    start rung fails it descends until one passes."""
    def passes(i):
        return any(run_rung(rates[i])[0] for _ in range(attempts))

    if passes(start):
        best = start
        for i in range(start + 1, len(rates)):
            if not passes(i):
                break
            best = i
        return best
    for i in range(start - 1, -1, -1):
        if passes(i):
            return i
    return None


def achieved_rate(records):
    """Answered requests per second over the rung, from the first due time
    to the last answer."""
    answered = [r for r in records if latency_us(r) != MISS]
    if not answered:
        return 0.0
    span_ns = max(r[2] for r in answered) - min(r[0] for r in records)
    return len(answered) / (span_ns / 1e9)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives
    them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
