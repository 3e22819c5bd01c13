"""Estimation-dataset construction.

A day's best-quote timeline, read as ``lobster.replay`` makes it (the last
quote of each nanosecond at which it changed), is sampled in one pass
(``build_day_samples``): each mid-price change gets its direction label and
one imbalance observation drawn inside the interval before it (uniformly in
wall time, or uniformly over the discrete best-quote update times). A
point is a plain tuple ``(t_sample_ns, t_change_ns, I, y, nb, na)``: the
sample time, the change time, the imbalance, the label and the two best
queue lengths it was read from. It holds no instrument or day; those become
columns when ``write_samples_csv`` writes the run's points. This module also
subsamples each day to a fixed size and splits the aggregated rows into
train and test indices. The fit and evaluate stages read samples.csv back
as columns, not points.

Mids are compared as exact half-tick integers (bid + ask), so change
detection has no tolerance parameter. All timestamps are integer
nanoseconds; the open interval (t_prev, t_next) is sampled on the integer
lattice strictly inside both endpoints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import NumericalError
from .reports import read_csv, read_text, write_csv

if TYPE_CHECKING:
    from .book import BestQuoteState


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
        raise NumericalError("imbalance undefined: both best queues empty")
    return (nb - na) / total


UNIFORM = "uniform"
EVENT = "event"


@dataclass
class DaySampleResult:
    points: list[tuple] = field(default_factory=list)  # (t_sample_ns, t_change_ns, I, y, nb, na)
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
) -> DaySampleResult:
    """One day's (I_i, y_i) sample from replay's timeline ``states``, in one
    pass over it.

    The reference mid is the one prevailing at ``first_event_ns`` (None if
    the book is one-sided there); a later two-sided record with another mid
    is a change, labelled 1 for an upward move, and one-sided records leave
    the reference as it is. A change at or after ``close_ns`` is dropped.
    Every other change yields at most one point, drawn inside the interval
    since the change before it (or since ``first_event_ns``):

    - uniform: one draw of a nanosecond strictly inside, reading the record
      that prevails there; an interval with no interior nanosecond is
      skipped, undrawn.
    - event: one draw among the two-sided records strictly inside, reading
      that record; without one, no draw, and the point falls back to the
      record prevailing at the interval's start, stamped there (counted in
      ``fallback_points``).

    A point whose record is one-sided or has both queues empty is skipped.
    """
    if mode not in (UNIFORM, EVENT):
        raise ValueError(f"unknown sampling mode {mode!r}")
    uniform = mode == UNIFORM
    res = DaySampleResult()
    t_prev = first_event_ns
    lo = 0  # the first record after t_prev; the one before it prevails at t_prev
    mid = None
    for i, (t, bid, ask, _, _) in enumerate(states):
        if t <= first_event_ns:
            mid, lo = None if bid is None or ask is None else bid + ask, i + 1
            continue
        if bid is None or ask is None:
            continue
        prev_mid, mid = mid, bid + ask
        if prev_mid is None or mid == prev_mid:
            continue
        if t >= close_ns:
            res.dropped_after_close += 1
            continue
        res.n_changes += 1
        t_start, start = t_prev, lo  # the interval (t_start, t) holds states[start:i]
        t_prev, lo = t, i + 1
        if uniform:
            if t - t_start < 2:
                res.skipped_empty_interval += 1
                continue
            t_s, fallback = int(rng.integers(t_start + 1, t)), False
            j = i - 1
            while j >= start and states[j][0] > t_s:
                j -= 1
        else:
            inside = [j for j in range(start, i)
                      if states[j][1] is not None and states[j][2] is not None]
            fallback = not inside
            if inside:
                j = inside[int(rng.integers(len(inside)))]
                t_s = states[j][0]
            else:
                j, t_s = start - 1, t_start
        st = states[j] if j >= 0 else None
        if st is None or st.bid is None or st.ask is None or st.nb + st.na == 0:
            res.skipped_one_sided += 1
            continue
        res.fallback_points += fallback
        res.points.append((t_s, t, queue_imbalance(st.nb, st.na), 1 if mid > prev_mid else 0,
                           st.nb, st.na))
    return res


def subsample_day(
    points: Sequence[tuple],
    n: int,
    rng: np.random.Generator,
) -> tuple[list[tuple], bool]:
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
        raise NumericalError(f"need at least 5 points, got {n}")
    if not 0.0 < frac < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    n_train = int(frac * n + 1e-9)  # guard the floor against float fuzz: 0.7 * 1400 < 980
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# --- CSV interchange -----------------------------------------------------------

SAMPLE_COLUMNS = ("instrument", "day", "t_sample_ns", "t_change_ns", "I", "y")


def write_samples_csv(path, points: Sequence[tuple], instrument: str,
                      days: Sequence[int]) -> None:
    """samples.csv of ``points`` in order, ``days[k]`` the day of ``points[k]``."""
    columns = list(zip(*points)) or [()] * 4
    write_csv(path, SAMPLE_COLUMNS, ([instrument] * len(points), days, *columns[:4]))


# A row as write_samples_csv writes it: an instrument of at most 64 printable
# ASCII characters but no comma or quote, a day and times of at most 18
# digits, I as %.12g renders it, and y. The group is "I,y".
_SAMPLE_ROW = (r"[ !#-+\--~]{0,64}+,[0-9]{1,18}+,[0-9]{1,18}+,[0-9]{1,18}+,"
               r"(-?[0-9]{1,17}+(?:\.[0-9]{1,17}+)?+(?:e[-+][0-9]{2,3}+)?+,[01])\r\n")
_SAMPLES = re.compile(",".join(SAMPLE_COLUMNS) + f"\r\n(?:{_SAMPLE_ROW})*+")


def read_samples_csv(path) -> SampleColumns:
    """The I and y columns of samples.csv. A file not as write_samples_csv
    writes it is read by ``reports.read_csv``: a row whose day or times are not
    integers, whose I is not a finite number in [-1, 1], or whose y is not 0 or
    1 is a DataError naming the file and the line."""
    text = read_text(path)
    if _SAMPLES.fullmatch(text):
        I, y = np.fromstring(",".join(re.findall(_SAMPLE_ROW, text)), sep=",").reshape(-1, 2).T
        if (np.abs(I) <= 1.0).all():
            return SampleColumns(I.copy(), y.astype(np.int64))
    rows = read_csv(path, SAMPLE_COLUMNS, _sample, text)
    return SampleColumns(np.array([i for i, _ in rows], dtype=float),
                         np.array([y for _, y in rows], dtype=np.int64))


def _sample(row: list[str]) -> tuple[float, int]:
    int(row[1]), int(row[2]), int(row[3])  # day and times: checked, not kept
    i, y = float(row[4]), int(row[5])
    if not -1.0 <= i <= 1.0:  # false for nan too
        raise ValueError(f"I = {row[4]} is not a finite number in [-1, 1]")
    if y != 0 and y != 1:
        raise ValueError(f"y = {row[5]} is not 0 or 1")
    return i, y
