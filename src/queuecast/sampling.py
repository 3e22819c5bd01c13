"""Estimation-dataset construction.

From a day's best-quote timeline, read as ``lobster.replay`` makes it (the
last quote of each nanosecond at which it changed), this module extracts
the mid-price change times and their direction labels, draws one imbalance
observation per change interval (uniformly in wall time, or uniformly over
the discrete best-quote update times), subsamples each day to a fixed size,
and splits the aggregated rows into train and test indices. The fit and
evaluate stages read samples.csv back as columns, not points.

Mids are compared as exact half-tick integers (bid + ask), so change
detection has no tolerance parameter. All timestamps are integer
nanoseconds; the open interval (t_prev, t_next) is sampled on the integer
lattice strictly inside both endpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import BothQueuesEmpty, EmptyInterior, OneSidedBook, TooFewPoints
from .reports import read_csv, write_csv

if TYPE_CHECKING:
    from .book import BestQuoteState


@dataclass(frozen=True, slots=True)
class SamplePoint:
    instrument: str
    day: int
    t_sample_ns: int
    t_change_ns: int
    imbalance: float
    label: int
    nb: int = 0
    na: int = 0
    fallback: bool = False


@dataclass
class SampleColumns:
    """The columns of samples.csv that fitting and scoring use, row-aligned."""

    imbalance: np.ndarray  # I
    label: np.ndarray  # y, 0 or 1

    def __len__(self) -> int:
        return len(self.label)


def queue_imbalance(nb: int, na: int) -> float:
    """Normalized best-queue imbalance (nb - na) / (nb + na) in [-1, 1]."""
    if nb < 0 or na < 0:
        raise ValueError("queue lengths must be nonnegative")
    total = nb + na
    if total == 0:
        raise BothQueuesEmpty("imbalance undefined: both best queues empty")
    return (nb - na) / total


class QuoteTimeline:
    """Bisect lookups over a quote timeline as ``lobster.replay`` makes it:
    the last quote of each nanosecond at which the quote changed, so times
    rise strictly and no record repeats the quote before it."""

    def __init__(self, states: Sequence[BestQuoteState]):
        self.states = states
        self.times = [st[0] for st in states]

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, t_ns: int) -> Optional[BestQuoteState]:
        """Prevailing state at t_ns (last update with time <= t_ns)."""
        i = bisect_right(self.times, t_ns)
        return self.states[i - 1] if i else None

    def indices_between(self, lo_ns: int, hi_ns: int) -> range:
        """Indices of updates strictly inside the open interval (lo, hi)."""
        a = bisect_right(self.times, lo_ns)
        b = bisect_right(self.times, hi_ns - 1)
        return range(a, b)


def mid_change_times(
    timeline: QuoteTimeline,
    t0_ns: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Ordered (t_i, y_i) pairs at which the half-tick mid changed.

    The baseline mid is the one prevailing at t0 (the first event of the
    session); changes at t0 itself are not counted. y_i is 1 for an upward
    move. One-sided stretches leave the reference mid untouched. Callers
    drop changes at or after the session close (those have no sampleable
    interval inside the session).
    """
    if len(timeline) == 0:
        return []
    if t0_ns is None:
        t0_ns = timeline.times[0]
    base = timeline.state_at(t0_ns)
    prev_mid = base.mid2 if base is not None else None
    out: list[tuple[int, int]] = []
    start = bisect_right(timeline.times, t0_ns)
    for i in range(start, len(timeline)):
        st = timeline.states[i]
        mid = st.mid2
        if mid is None:
            continue
        if prev_mid is not None and mid != prev_mid:
            out.append((st.t_ns, 1 if mid > prev_mid else 0))
        prev_mid = mid
    return out


def _imbalance_from(st: BestQuoteState) -> tuple[float, int, int]:
    if not st.two_sided or st.nb + st.na == 0:
        raise OneSidedBook("book one-sided at sampling instant")
    return queue_imbalance(st.nb, st.na), st.nb, st.na


def sample_uniform_time(
    timeline: QuoteTimeline,
    t_prev_ns: int,
    t_next_ns: int,
    rng: np.random.Generator,
) -> tuple[int, float, int, int]:
    """Draw t uniformly on the open interval and read the prevailing I.

    Returns (t_sample_ns, imbalance, nb, na). Raises OneSidedBook when the
    prevailing state has an empty side, EmptyInterior when the interval has
    no interior nanosecond.
    """
    if t_next_ns - t_prev_ns < 2:
        raise EmptyInterior(f"interval ({t_prev_ns}, {t_next_ns}) has no interior")
    t = int(rng.integers(t_prev_ns + 1, t_next_ns))
    st = timeline.state_at(t)
    if st is None:
        raise OneSidedBook("no book state before sampling instant")
    imb, nb, na = _imbalance_from(st)
    return t, imb, nb, na


def sample_event_time(
    timeline: QuoteTimeline,
    t_prev_ns: int,
    t_next_ns: int,
    rng: np.random.Generator,
) -> tuple[int, float, int, int, bool]:
    """Draw one best-quote update uniformly from inside the interval.

    Reads I immediately after the chosen update. When the interval contains
    no usable update, falls back to the state just after t_prev (flagged in
    the last return slot).
    """
    idx = timeline.indices_between(t_prev_ns, t_next_ns)
    candidates = [i for i in idx if timeline.states[i].two_sided]
    if candidates:
        k = int(rng.integers(len(candidates)))
        st = timeline.states[candidates[k]]
        imb, nb, na = _imbalance_from(st)
        return st.t_ns, imb, nb, na, False
    st = timeline.state_at(t_prev_ns)
    if st is None:
        raise OneSidedBook("no book state at interval start")
    imb, nb, na = _imbalance_from(st)
    return t_prev_ns, imb, nb, na, True


UNIFORM = "uniform"
EVENT = "event"


@dataclass
class DaySampleResult:
    points: list[SamplePoint] = field(default_factory=list)
    n_changes: int = 0
    dropped_after_close: int = 0
    skipped_one_sided: int = 0
    skipped_empty_interval: int = 0
    fallback_points: int = 0


def build_day_samples(
    states: Sequence[BestQuoteState],
    first_event_ns: int,
    close_ns: int,
    mode: str,
    rng: np.random.Generator,
    instrument: str = "SIM",
    day: int = 0,
) -> DaySampleResult:
    """One day's (I_i, y_i) sample from replay's timeline ``states``: every
    in-session mid change yields at most one point, sampled inside the
    preceding interval."""
    if mode not in (UNIFORM, EVENT):
        raise ValueError(f"unknown sampling mode {mode!r}")
    tl = QuoteTimeline(states)
    res = DaySampleResult()
    changes = mid_change_times(tl, first_event_ns)
    in_session = [c for c in changes if c[0] < close_ns]
    res.dropped_after_close = len(changes) - len(in_session)
    res.n_changes = len(in_session)
    t_prev = first_event_ns
    for t_change, label in in_session:
        try:
            if mode == UNIFORM:
                t_s, imb, nb, na = sample_uniform_time(tl, t_prev, t_change, rng)
                fallback = False
            else:
                t_s, imb, nb, na, fallback = sample_event_time(tl, t_prev, t_change, rng)
                if fallback:
                    res.fallback_points += 1
            res.points.append(
                SamplePoint(instrument, day, t_s, t_change, imb, label, nb, na, fallback)
            )
        except OneSidedBook:
            res.skipped_one_sided += 1
        except EmptyInterior:
            res.skipped_empty_interval += 1
        t_prev = t_change
    return res


def subsample_day(
    points: Sequence[SamplePoint],
    n: int,
    rng: np.random.Generator,
) -> tuple[list[SamplePoint], bool]:
    """Uniform draw of n points without replacement, chronological order.

    Days with fewer than n points are taken whole and flagged.
    """
    if n < 1:
        raise ValueError("subsample size must be >= 1")
    if len(points) <= n:
        return list(points), len(points) < n
    idx = rng.choice(len(points), size=n, replace=False)
    idx.sort()
    return [points[i] for i in idx], False


def split_indices(
    n: int,
    frac: float = 0.8,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random partition of range(n) with |train| = floor(frac * n):
    the sorted train indices and the sorted test indices."""
    if n < 5:
        raise TooFewPoints(n, 5)
    if not 0.0 < frac < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    n_train = int(frac * n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# --- CSV interchange -----------------------------------------------------------

SAMPLE_COLUMNS = ("instrument", "day", "t_sample_ns", "t_change_ns", "I", "y")


def write_samples_csv(path, points: Sequence[SamplePoint]) -> None:
    write_csv(path, SAMPLE_COLUMNS,
              ((p.instrument, p.day, p.t_sample_ns, p.t_change_ns, p.imbalance, p.label)
               for p in points))


def read_samples_csv(path) -> SampleColumns:
    """The I and y columns of samples.csv, read by ``reports.read_csv``. A
    row whose day or times are not integers, whose I is not a finite number
    in [-1, 1], or whose y is not 0 or 1 is a DataError naming the file and
    the line."""
    rows = read_csv(path, SAMPLE_COLUMNS, _sample)
    return SampleColumns(np.array([i for i, _ in rows]), np.array([y for _, y in rows]))


def _sample(row: list[str]) -> tuple[float, int]:
    int(row[1]), int(row[2]), int(row[3])  # day and times: checked, not kept
    i, y = float(row[4]), int(row[5])
    if not -1.0 <= i <= 1.0:  # false for nan too
        raise ValueError(f"I = {row[4]} is not a finite number in [-1, 1]")
    if y != 0 and y != 1:
        raise ValueError(f"y = {row[5]} is not 0 or 1")
    return i, y
